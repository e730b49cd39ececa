// tcp-*: four forked runtime::SocketSmrServer replica processes over
// loopback TCP, loaded by one runtime::SocketSmrClient hosted in this
// process (one session: one socket loop thread, plus the generator thread).
// The replica children (this binary again, in --replica mode) answer
// snapshot requests on a pipe so the harness can meter their CPU, memory and
// counters over exactly the measured window.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <semaphore>
#include <thread>

#include "bench.hpp"
#include "common/bytes.hpp"
#include "runtime/socket_smr.hpp"

namespace perfbench {

namespace {

using namespace fastbft;
using namespace std::chrono_literals;

/// What a replica child reports about itself (plain bytes over a pipe: the
/// child runs this same binary, so the layout matches).
struct ChildSnapshot {
  double user_us = 0;
  double sys_us = 0;
  double vcsw = 0;
  double max_rss_mb = 0;
  net::SocketCounters net;
  smr::SmrNode::EngineStats engine;
  std::uint64_t payload_allocs = 0;
};

ChildSnapshot take_snapshot(const runtime::SocketSmrServer& server) {
  ChildSnapshot s;
  const ProcUsage u = self_usage();
  s.user_us = u.user_us;
  s.sys_us = u.sys_us;
  s.vcsw = u.vcsw;
  s.max_rss_mb = u.max_rss_mb;
  s.net = server.socket_stats();
  s.engine = server.engine_stats();
  s.payload_allocs = PayloadStats::allocs();
  return s;
}

/// The shared topology every process of one cluster is built from.
runtime::SocketClusterConfig cluster_config(std::uint32_t shards,
                                            const std::uint16_t (&ports)[kReplicas]) {
  runtime::SocketClusterConfig config;
  config.cfg = consensus::QuorumConfig::create(kReplicas, 1, 1);
  config.num_clients = 1;
  config.smr.pipeline_depth = kDepth;
  config.smr.max_batch = kBatch;
  config.smr.num_groups = shards;
  config.peers.resize(kReplicas + 1);
  for (ProcessId id = 0; id < kReplicas; ++id) {
    config.peers[id].host = "127.0.0.1";
    config.peers[id].port = ports[id];
  }
  return config;
}

/// One cluster: four replica processes plus the in-process client.
class TcpCluster {
 public:
  explicit TcpCluster(const Spec& spec) : spec_(spec) {}
  ~TcpCluster() {
    client_.reset();
    for (ProcessId id = 0; id < kReplicas; ++id) {
      if (pids_[id] > 0) {
        ::kill(pids_[id], SIGKILL);
        ::waitpid(pids_[id], nullptr, 0);
      }
      if (control_[id] >= 0) ::close(control_[id]);
      if (reply_[id] >= 0) ::close(reply_[id]);
    }
  }
  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  /// Binds port-0 listeners, forks the replicas onto them (so nobody races
  /// for ports) and starts the client. False on any system-call failure.
  bool start() {
    int listen_fds[kReplicas];
    std::uint16_t ports[kReplicas];
    for (ProcessId id = 0; id < kReplicas; ++id) {
      int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
      if (fd < 0) return false;
      int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      socklen_t len = sizeof(addr);
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
          ::listen(fd, 128) != 0 ||
          ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        ::close(fd);
        for (ProcessId j = 0; j < id; ++j) ::close(listen_fds[j]);
        return false;
      }
      listen_fds[id] = fd;
      ports[id] = ntohs(addr.sin_port);
    }

    bool ok = true;
    for (ProcessId id = 0; id < kReplicas && ok; ++id) {
      int control[2], reply[2];
      if (::pipe(control) != 0) { ok = false; break; }
      if (::pipe(reply) != 0) {
        ::close(control[0]);
        ::close(control[1]);
        ok = false;
        break;
      }
      pid_t pid = ::fork();
      if (pid == 0) {
        // Keep only this replica's listener and pipe ends: a sibling that
        // held our control pipe's write end would hide the parent's exit.
        for (ProcessId other = 0; other < kReplicas; ++other) {
          if (other != id) ::close(listen_fds[other]);
          if (control_[other] >= 0) ::close(control_[other]);
          if (reply_[other] >= 0) ::close(reply_[other]);
        }
        ::close(control[1]);
        ::close(reply[0]);
        // A fresh image, so the replica's RSS is its own and not whatever
        // this process had grown to by the time it forked.
        std::vector<std::string> words = {
            "perfbench", "--replica", std::to_string(id),
            std::to_string(control[0]), std::to_string(reply[1]),
            std::to_string(listen_fds[id]), std::to_string(spec_.shards)};
        for (std::uint16_t port : ports) words.push_back(std::to_string(port));
        std::vector<char*> argv;
        for (auto& w : words) argv.push_back(w.data());
        argv.push_back(nullptr);
        ::execv("/proc/self/exe", argv.data());
        ::_exit(127);
      }
      ::close(control[0]);
      ::close(reply[1]);
      if (pid < 0) {
        ::close(control[1]);
        ::close(reply[0]);
        ok = false;
        break;
      }
      pids_[id] = pid;
      control_[id] = control[1];
      reply_[id] = reply[0];
    }
    for (ProcessId id = 0; id < kReplicas; ++id) ::close(listen_fds[id]);
    if (!ok) return false;

    runtime::SocketClientOptions options;
    options.first_client_id = kReplicas;
    options.sessions = 1;
    options.num_shards = spec_.shards;
    options.request_timeout_us = 100'000;
    options.request_deadline_us = kDeadlineUs;
    options.max_in_flight = spec_.window ? spec_.window : (1u << 20);
    client_ = std::make_unique<runtime::SocketSmrClient>(
        cluster_config(spec_.shards, ports), options);
    client_->start();
    return true;
  }

  runtime::SocketSmrClient& client() { return *client_; }

  /// Snapshots every live replica (missing entries: replica gone).
  std::vector<std::optional<ChildSnapshot>> snapshot(char cmd = 'S') {
    std::vector<std::optional<ChildSnapshot>> out(kReplicas);
    // Ask every child before reading any reply, so they snapshot at about
    // one instant.
    bool asked[kReplicas] = {};
    for (ProcessId id = 0; id < kReplicas; ++id) {
      asked[id] = pids_[id] > 0 && write_all(control_[id], &cmd, 1);
    }
    for (ProcessId id = 0; id < kReplicas; ++id) {
      ChildSnapshot s;
      if (asked[id] && read_all(reply_[id], &s, sizeof(s))) out[id] = s;
    }
    return out;
  }

  void kill_replica(ProcessId id) {
    ::kill(pids_[id], SIGKILL);
    ::waitpid(pids_[id], nullptr, 0);
    pids_[id] = -1;
  }

  /// Stops the client, then has each replica report a last snapshot and
  /// exit; reaps them.
  std::vector<std::optional<ChildSnapshot>> shutdown() {
    client_->stop();
    auto last = snapshot('Q');
    for (ProcessId id = 0; id < kReplicas; ++id) {
      if (pids_[id] > 0) {
        ::waitpid(pids_[id], nullptr, 0);
        pids_[id] = -1;
      }
    }
    return last;
  }

 private:
  const Spec& spec_;
  pid_t pids_[kReplicas] = {-1, -1, -1, -1};
  int control_[kReplicas] = {-1, -1, -1, -1};
  int reply_[kReplicas] = {-1, -1, -1, -1};
  std::unique_ptr<runtime::SocketSmrClient> client_;
};

/// The load generator: runs on its own thread; completions arrive on the
/// client's socket loop thread.
class TcpLoad {
 public:
  TcpLoad(smr::ClientSession& session, const Spec& spec, std::uint64_t seed,
          Clock::time_point epoch, Tracer& tracer)
      : session_(session), spec_(spec), seed_(seed), source_(seed),
        epoch_(epoch), tracer_(tracer), slots_(spec.window ? spec.window : 1) {
    submit_name_ = tracer_.intern("session.submit");
  }

  std::int64_t wall_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// Generator thread only.
  void submit(std::int64_t due_ns) {
    OpSlot& op = ops_.emplace_back();
    op.index = ops_.size() - 1;
    op.kind = source_.next_kind();
    op.key = source_.next_key();
    op.due_ns = due_ns;
    const std::uint64_t seq = op.index + 1;  // one session: its sequence
    const bool traced = tracing_.load(std::memory_order_relaxed);
    op.invoked = wall_ns();
    if (spec_.window) op.due_ns = op.invoked;
    auto future = op.kind == smr::OpKind::Put
                      ? session_.put(key_name(op.key),
                                     make_value(seed_, op.index, spec_.value_bytes))
                      : session_.get(key_name(op.key));
    if (traced) {
      tracer_.record(submit_name_, tracer_.next_id(),
                     op_span_id(session_.id(), seq), op.invoked, wall_ns());
    }
    issued_.store(ops_.size(), std::memory_order_release);
    future.on_ready([this, &op](const smr::Reply& reply) {
      op.done_ns = wall_ns();
      op.returned = op.done_ns;
      record_reply(op, reply, seed_, spec_.value_bytes,
                   issued_.load(std::memory_order_acquire));
      op.completed = true;
      completed_.fetch_add(1, std::memory_order_release);
      if (spec_.window) slots_.release();
    });
  }

  /// Submits one op as the generator would (a closed loop takes a window
  /// slot first).
  void submit_next() {
    if (spec_.window) slots_.acquire();
    submit(wall_ns());
  }

  /// Generates until `stop` is set: a closed loop keeps spec.window ops
  /// outstanding; an open loop submits each op when its Poisson arrival is
  /// due (late wake-ups submit immediately and are recorded as late).
  void generate(const std::atomic<bool>& stop) {
    if (spec_.window) {
      while (!stop.load(std::memory_order_relaxed)) {
        if (slots_.try_acquire_for(10ms)) submit(wall_ns());
      }
      return;
    }
    std::int64_t due = wall_ns();
    while (!stop.load(std::memory_order_relaxed)) {
      due += static_cast<std::int64_t>(source_.next_gap_us(spec_.rate) * 1000);
      std::this_thread::sleep_until(epoch_ + std::chrono::nanoseconds(due));
      if (stop.load(std::memory_order_relaxed)) break;
      submit(due);
    }
  }

  /// Blocks until every issued op completed or `budget` ran out.
  bool drain(std::chrono::milliseconds budget) {
    const auto give_up = Clock::now() + budget;
    while (completed_.load(std::memory_order_acquire) < ops_.size()) {
      if (Clock::now() > give_up) return false;
      std::this_thread::sleep_for(1ms);
    }
    return true;
  }

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  std::uint64_t completed() const { return completed_.load(std::memory_order_acquire); }
  const std::deque<OpSlot>& ops() const { return ops_; }

 private:
  smr::ClientSession& session_;
  const Spec& spec_;
  std::uint64_t seed_;
  OpSource source_;
  Clock::time_point epoch_;
  Tracer& tracer_;
  std::uint32_t submit_name_ = 0;
  std::counting_semaphore<(1 << 20)> slots_;
  std::deque<OpSlot> ops_;
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<bool> tracing_{false};
};

/// Client-session counters at one instant.
struct SessionCounts {
  double failovers = 0, rejected = 0, deadline = 0, demotions = 0;
};
SessionCounts session_counts(smr::ClientSession& s) {
  return {static_cast<double>(s.failovers()),
          static_cast<double>(s.rejected_replies()),
          static_cast<double>(s.deadline_timeouts()),
          static_cast<double>(s.gateway_demotions())};
}

/// Window boundaries and what was sampled at them.
struct Mark {
  std::int64_t ns = 0;
  ProcUsage client;
  std::vector<std::optional<ChildSnapshot>> replicas;
  net::SocketCounters client_net;
  std::uint64_t client_allocs = 0;
  SessionCounts session;
};

Mark mark(TcpCluster& cluster, TcpLoad& load) {
  Mark m;
  m.replicas = cluster.snapshot();
  m.ns = load.wall_ns();
  m.client = self_usage();
  m.client_net = cluster.client().socket_stats();
  m.client_allocs = PayloadStats::allocs();
  m.session = session_counts(cluster.client().session(0));
  return m;
}

/// Sleeps until `ns` on the load's clock. Meanwhile, once `rss_ops` ops
/// completed, reads the replicas' peak RSS into `rss_mb` (if still < 0).
void sleep_until_ns(TcpCluster& cluster, const TcpLoad& load, std::int64_t ns,
                    std::uint64_t rss_ops, double& rss_mb) {
  for (std::int64_t left = ns - load.wall_ns(); left > 0; left = ns - load.wall_ns()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<std::int64_t>(left, 10'000'000)));
    if (rss_mb < 0 && load.completed() >= rss_ops) {
      rss_mb = 0;
      for (const auto& s : cluster.snapshot()) {
        if (s) rss_mb = std::max(rss_mb, s->max_rss_mb);
      }
    }
  }
}

/// Cost of the interval [a, b]: ops completed OK inside it, and CPU.
struct Interval {
  double served = 0;
  double seconds = 0;
  double replica_user_us = 0, replica_sys_us = 0, replica_vcsw = 0;
  double client_cpu_us = 0, client_vcsw = 0;
};

Interval interval(const Mark& a, const Mark& b, const TcpLoad& load) {
  Interval iv;
  for (const auto& op : load.ops()) {
    if (op.completed && !op.timed_out && op.done_ns >= a.ns && op.done_ns < b.ns) {
      iv.served += 1;
    }
  }
  iv.seconds = (b.ns - a.ns) / 1e9;
  for (ProcessId id = 0; id < kReplicas; ++id) {
    if (!a.replicas[id] || !b.replicas[id]) continue;
    iv.replica_user_us += b.replicas[id]->user_us - a.replicas[id]->user_us;
    iv.replica_sys_us += b.replicas[id]->sys_us - a.replicas[id]->sys_us;
    iv.replica_vcsw += b.replicas[id]->vcsw - a.replicas[id]->vcsw;
  }
  iv.client_cpu_us = (b.client.user_us + b.client.sys_us) -
                     (a.client.user_us + a.client.sys_us);
  iv.client_vcsw = b.client.vcsw - a.client.vcsw;
  return iv;
}

void add_layer_metrics(Values& v, const Mark& a, const Mark& b,
                       const Interval& iv,
                       const std::vector<std::optional<ChildSnapshot>>& last) {
  const double n = std::max(1.0, iv.served);
  // Socket counters of every process, as deltas over the interval.
  double frames = 0, bytes = 0, writevs = 0, writev_frames = 0, heartbeats = 0,
         delivery_allocs = 0, reconnects = 0, peer_downs = 0, dropped = 0,
         decode_errors = 0, high_water = 0, allocs = 0;
  auto add = [&](const net::SocketCounters& x, const net::SocketCounters& y) {
    frames += static_cast<double>(y.frames_out - x.frames_out);
    bytes += static_cast<double>(y.bytes_out - x.bytes_out);
    writevs += static_cast<double>(y.writev_calls - x.writev_calls);
    writev_frames += static_cast<double>(y.writev_frames - x.writev_frames);
    heartbeats += static_cast<double>(y.heartbeats_out - x.heartbeats_out);
    delivery_allocs += static_cast<double>(y.delivery_allocs - x.delivery_allocs);
    reconnects += static_cast<double>(y.reconnects - x.reconnects);
    peer_downs += static_cast<double>(y.peer_downs - x.peer_downs);
    dropped += static_cast<double>(y.frames_dropped - x.frames_dropped);
    decode_errors += static_cast<double>(y.decode_errors - x.decode_errors);
    high_water = std::max(high_water, static_cast<double>(y.send_queue_high_water));
  };
  add(a.client_net, b.client_net);
  allocs += static_cast<double>(b.client_allocs - a.client_allocs);
  for (ProcessId id = 0; id < kReplicas; ++id) {
    if (!a.replicas[id] || !b.replicas[id]) continue;
    add(a.replicas[id]->net, b.replicas[id]->net);
    allocs += static_cast<double>(b.replicas[id]->payload_allocs -
                                  a.replicas[id]->payload_allocs);
  }
  v["net.frames_per_op"] = frames / n;
  v["net.bytes_per_op"] = bytes / n;
  v["net.writev_per_op"] = writevs / n;
  v["net.frames_per_writev"] = writevs ? writev_frames / writevs : 0;
  v["net.heartbeats_per_s"] = heartbeats / iv.seconds;
  v["net.delivery_allocs_per_kop"] = delivery_allocs * 1000 / n;
  v["net.send_queue_high_water"] = high_water;
  v["net.reconnects"] = reconnects;
  v["net.peer_downs"] = peer_downs;
  v["net.frames_dropped"] = dropped;
  v["net.decode_errors"] = decode_errors;
  v["codec.payload_allocs_per_op"] = allocs / n;

  v["proc.replica_user_us_per_op"] = iv.replica_user_us / n;
  v["proc.replica_sys_us_per_op"] = iv.replica_sys_us / n;
  v["proc.replica_vcsw_per_op"] = iv.replica_vcsw / n;
  v["proc.client_vcsw_per_op"] = iv.client_vcsw / n;

  std::vector<smr::SmrNode::EngineStats> engines;
  for (const auto& s : last) {
    if (s) engines.push_back(s->engine);
  }
  add_engine_values(v, engines);

  v["session.failovers_per_kop"] = (b.session.failovers - a.session.failovers) * 1000 / n;
  v["session.rejected_replies"] = b.session.rejected - a.session.rejected;
  v["session.deadline_timeouts"] = b.session.deadline - a.session.deadline;
  v["session.gateway_demotions"] = b.session.demotions - a.session.demotions;
}

}  // namespace

int replica_main(int argc, char** argv) {
  // perfbench --replica ID CONTROL_FD REPLY_FD LISTEN_FD SHARDS PORT x4
  if (argc != 7 + static_cast<int>(kReplicas)) return 2;
  auto arg = [&](int i) { return std::strtoul(argv[i], nullptr, 10); };
  const auto id = static_cast<ProcessId>(arg(2));
  const int control = static_cast<int>(arg(3));
  const int reply = static_cast<int>(arg(4));
  std::uint16_t ports[kReplicas];
  for (std::uint32_t i = 0; i < kReplicas; ++i) {
    ports[i] = static_cast<std::uint16_t>(arg(7 + static_cast<int>(i)));
  }
  runtime::SocketClusterConfig config =
      cluster_config(static_cast<std::uint32_t>(arg(6)), ports);
  config.peers[id].adopted_listen_fd = static_cast<int>(arg(5));
  ::signal(SIGPIPE, SIG_IGN);
  runtime::SocketSmrServer server(std::move(config), id);
  server.start();
  // Serve until the control pipe says 'Q' or closes; answer every 'S' or
  // 'Q' with a snapshot.
  char cmd = 0;
  while (read_all(control, &cmd, 1)) {
    ChildSnapshot s = take_snapshot(server);
    if (!write_all(reply, &s, sizeof(s)) || cmd == 'Q') break;
  }
  server.stop();
  return 0;
}

namespace {

/// One TCP cluster: built up to the first op served (kSetups times, the
/// last build carrying the load), then loaded through the window its gate
/// returns. Untraced, it returns the cluster's figures and notes run
/// details in `r`; traced, it adds the per-layer metrics to `r`.
ClusterFigures tcp_cluster(const Args& args, std::uint64_t seed,
                           const WindowGate& gate, Report& r) {
  const Spec& spec = *args.spec;
  const auto epoch = Clock::now();
  Tracer tracer(epoch);
  ClusterFigures f;

  // Set-up: listeners, forks, client start, first op served.
  // The cluster goes first (it joins the loop thread that runs the load's
  // completion callbacks), so it is declared last.
  std::unique_ptr<TcpLoad> load;
  std::unique_ptr<TcpCluster> cluster;
  for (int i = 0; i < kSetups; ++i) {
    cluster.reset();
    load.reset();
    const auto t0 = Clock::now();
    cluster = std::make_unique<TcpCluster>(spec);
    if (!cluster->start()) {
      r.correct = false;
      r.note("error", "\"cluster start failed\"");
      return f;
    }
    load = std::make_unique<TcpLoad>(cluster->client().session(0), spec, seed,
                                     epoch, tracer);
    load->submit_next();
    if (!load->drain(std::chrono::milliseconds(kDeadlineUs / 1000 + 2000)) ||
        load->ops().front().timed_out) {
      r.correct = false;
      r.note("error", "\"first op not served\"");
      return f;
    }
    f.setups_s[i] = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  const Window window = gate();
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
  };

  std::atomic<bool> stop{false};
  std::thread generator([&] { load->generate(stop); });

  const std::int64_t w0 = ns(window.warm_end);
  const std::int64_t span = ns(window.end) - w0;
  double rss_mb = args.trace ? 0 : -1;
  sleep_until_ns(*cluster, *load, w0, spec.rss_ops, rss_mb);
  Mark start = mark(*cluster, *load);
  Mark middle = start;
  if (args.trace) {
    // First half untraced, second half traced: the traced half gives the
    // per-layer numbers, the pair gives the tracing overhead.
    sleep_until_ns(*cluster, *load, start.ns + span / 2, spec.rss_ops, rss_mb);
    middle = mark(*cluster, *load);
    load->set_tracing(true);
  }
  const std::int64_t end_ns = start.ns + span;
  std::int64_t kill_ns = -1;
  if (spec.kill_at >= 0) {
    sleep_until_ns(*cluster, *load,
                   middle.ns + static_cast<std::int64_t>(spec.kill_at * (end_ns - middle.ns)),
                   spec.rss_ops, rss_mb);
    kill_ns = load->wall_ns();
    cluster->kill_replica(0);
  }
  sleep_until_ns(*cluster, *load, end_ns, spec.rss_ops, rss_mb);
  Mark end = mark(*cluster, *load);
  stop.store(true);
  generator.join();
  load->set_tracing(false);

  const bool drained = load->drain(std::chrono::milliseconds(kDeadlineUs / 1000 + 3000));
  const std::int64_t drain_ns = load->wall_ns();
  auto last = cluster->shutdown();
  const AuditResult result = audit(load->ops());

  // Latency runs from when an op was due (open loop) or submitted (closed
  // loop) to its completion.
  const WindowStats w = window_stats(load->ops(), middle.ns, end.ns, drain_ns);
  std::vector<double> late;
  for (const auto& op : load->ops()) {
    if (op.due_ns >= middle.ns && op.due_ns < end.ns) {
      late.push_back((op.invoked - op.due_ns) / 1000.0);
    }
  }
  const Interval iv = interval(middle, end, *load);
  const double n = std::max(1.0, iv.served);
  note_window(r, w);
  r.note_number("ops_submitted", static_cast<double>(load->ops().size()));
  // How late the generator submitted ops (0 in a closed loop, which
  // submits the moment a window slot frees).
  r.note_number("gen_late_p99_us", quantile(late, 0.99));
  r.note_number("gen_late_max_us",
                late.empty() ? 0 : *std::max_element(late.begin(), late.end()));

  // Time without service: SIGKILL to the first completion of an op due
  // after it; with none, the whole rest of the run.
  std::int64_t first_after_kill = drain_ns;
  if (kill_ns >= 0) {
    for (const auto& op : load->ops()) {
      if (op.due_ns > kill_ns && op.completed && !op.timed_out) {
        first_after_kill = std::min(first_after_kill, op.done_ns);
      }
    }
    r.note("recovered", first_after_kill < drain_ns ? "true" : "false");
  }

  if (!args.trace) {
    f.set_audit(result);
    f.settled = drained;
    f.set_window(w);
    f.replica_cpu_us = iv.replica_user_us + iv.replica_sys_us;
    f.client_cpu_us = iv.client_cpu_us;
    if (rss_mb < 0) {
      // Fewer than spec.rss_ops ops in the whole run: the peak at its end.
      rss_mb = 0;
      for (const auto& s : last) {
        if (s) rss_mb = std::max(rss_mb, s->max_rss_mb);
      }
    }
    f.rss_mb = rss_mb;
    f.rss_ops = std::min(load->completed(), spec.rss_ops);
    if (kill_ns >= 0) r.add("unavailable_ms", (first_after_kill - kill_ns) / 1e6, "ms");
    f.measured = true;
    return f;
  }

  r.apply_audit(result);
  r.correct = r.correct && drained;
  r.note("drained", drained ? "true" : "false");
  Values v;
  const Interval untraced = interval(start, middle, *load);
  v["bench.samples"] = static_cast<double>(w.samples);
  v["bench.trace_overhead_frac"] =
      (iv.client_cpu_us / n) / (untraced.client_cpu_us / std::max(1.0, untraced.served)) - 1;
  add_layer_metrics(v, middle, end, iv, last);
  v["session.submit_us"] = tracer.totals("session.submit").mean_us();
  add_unit_costs(v, r, batch_payloads(spec, seed), /*wire_payloads=*/false);
  r.emit(layer_metrics(), v);

  // Root spans from the op records, for the ops due in the traced half.
  const std::uint32_t op_name = tracer.intern("op");
  for (const auto& op : load->ops()) {
    if (op.due_ns < middle.ns || op.due_ns >= end.ns || !op.completed) continue;
    tracer.record(op_name, op_span_id(cluster->client().session(0).id(), op.index + 1),
                  0, op.due_ns, op.done_ns);
  }
  r.note_number("spans", static_cast<double>(tracer.size()));
  if (!args.trace_file.empty() && !tracer.write_chrome(args.trace_file, 50'000)) {
    r.note("trace_file_error", "true");
  }
  return f;
}

}  // namespace

Report run_tcp(const Args& args) {
  const Spec& spec = *args.spec;
  Report r;
  if (spec.one_cpu && !args.trace) {
    // One cluster per CPU, each with every process and thread on its CPU.
    const auto clusters = run_forked(
        concurrent_clusters(), args.seconds,
        [&](std::uint32_t k, const WindowGate& gate) {
          if (pin_to_cpu(k) < 0) return ClusterFigures{};
          Report details;  // a cluster process keeps its run details
          return tcp_cluster(args, cluster_seed(args.seed, k), gate, details);
        });
    if (!clusters) {
      r.note("error", "\"a cluster process failed\"");
      return r;
    }
    add_end_to_end(r, *clusters);
    return r;
  }
  if (spec.one_cpu) {
    // Traced: one cluster, on one CPU as in the untraced run. Pinned before
    // any thread or process of the run starts, so all inherit it.
    const int cpu = pin_to_cpu(0);
    if (cpu < 0) {
      r.note("error", "\"cannot pin to a CPU\"");
      return r;
    }
    r.note_number("pinned_cpu", cpu);
  }
  const ClusterFigures f = tcp_cluster(
      args, args.seed, [&] { return window_from_now(args.seconds); }, r);
  if (!args.trace && f.measured) add_end_to_end(r, {f});
  return r;
}

}  // namespace perfbench
