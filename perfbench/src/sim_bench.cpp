// sim-*: the deterministic simulator, composed from the same public pieces
// smr::make_sim_service uses (runtime::Cluster with an SmrNode
// node_factory, one SimHost for the sessions, ClientSession per client
// endpoint). The composition adds two seams the factory does not expose:
// a pass-through IProcess around each SmrNode and a pass-through Host under
// the sessions. Untraced, they only meter session-side CPU time; traced,
// they also record handler spans.

#include <time.h>

#include <algorithm>
#include <array>

#include "bench.hpp"
#include "common/codec.hpp"
#include "engine/host.hpp"
#include "net/tags.hpp"
#include "runtime/cluster.hpp"
#include "smr/session.hpp"
#include "smr/smr_node.hpp"

namespace perfbench {

namespace {

using namespace fastbft;
namespace tags = net::tags;

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Session-side CPU time of the simulator thread: everything the sessions'
/// host runs (submission, dispatch, timeouts), their receive handler and
/// the typed-op calls. Nested entries count once.
struct SessionMeter {
  std::int64_t ns = 0;
  int depth = 0;
};

class Metered {
 public:
  explicit Metered(SessionMeter& m) : m_(m) {
    if (m_.depth++ == 0) t0_ = thread_cpu_ns();
  }
  ~Metered() {
    if (--m_.depth == 0) m_.ns += thread_cpu_ns() - t0_;
  }
  Metered(const Metered&) = delete;
  Metered& operator=(const Metered&) = delete;

 private:
  SessionMeter& m_;
  std::int64_t t0_ = 0;
};

class MeteredHost final : public engine::Host {
 public:
  MeteredHost(sim::Scheduler& sched, SessionMeter& meter)
      : inner_(sched), meter_(meter) {}
  TimePoint now() const override { return inner_.now(); }
  sim::TimerHandle schedule_after(Duration delay,
                                  std::function<void()> fn) override {
    return inner_.schedule_after(delay, [this, fn = std::move(fn)] {
      Metered m(meter_);
      fn();
    });
  }
  void post(std::function<void()> fn) override {
    inner_.post([this, fn = std::move(fn)] {
      Metered m(meter_);
      fn();
    });
  }

 private:
  engine::SimHost inner_;
  SessionMeter& meter_;
};

/// Handler span names, by outer tag and (for SMR_WRAPPED) inner tag.
struct HandlerNames {
  std::array<std::uint32_t, 256> outer{};
  std::array<std::uint32_t, 256> inner{};
  std::uint32_t other = 0;
  std::uint32_t session_reply = 0;
};

const std::vector<std::pair<std::string, std::uint8_t>>& outer_tags() {
  static const std::vector<std::pair<std::string, std::uint8_t>> v = {
      {"request", tags::kSmrRequest},
      {"decided", tags::kSmrDecided},
      {"snap_request", tags::kSmrSnapRequest},
      {"snap_response", tags::kSmrSnapResponse}};
  return v;
}

const std::vector<std::pair<std::string, std::uint8_t>>& inner_tags() {
  static const std::vector<std::pair<std::string, std::uint8_t>> v = {
      {"propose", tags::kPropose}, {"ack", tags::kAck},
      {"acksig", tags::kAckSig},   {"commit", tags::kCommit},
      {"vote", tags::kVote},       {"certreq", tags::kCertReq},
      {"certack", tags::kCertAck}, {"wish", tags::kWish}};
  return v;
}

/// Offset of the inner payload's tag in an SMR_WRAPPED message: tag,
/// group, slot, watermark, snapshot floor, u32 length.
constexpr std::size_t kWrappedInnerTag = 1 + 4 + 8 * 3 + 4;

std::uint64_t peek_u64(const Bytes& payload, std::size_t offset) {
  if (payload.size() < offset + 8) return 0;
  Decoder dec{ByteView(payload.data() + offset, 8)};
  return dec.u64();
}

struct Tracing {
  Tracer* tracer = nullptr;
  HandlerNames names;
};

/// Pass-through replica process: records a span around each receive
/// handler when tracing is on.
class HandledNode final : public runtime::IProcess {
 public:
  HandledNode(std::unique_ptr<smr::SmrNode> node, const Tracing& tracing)
      : node_(std::move(node)), tracing_(tracing) {}

  void start() override { node_->start(); }

  void on_message(ProcessId from, const Bytes& payload) override {
    Tracer* tracer = tracing_.tracer;
    if (tracer == nullptr || payload.empty()) {
      node_->on_message(from, payload);
      return;
    }
    const std::int64_t t0 = tracer->now_ns();
    node_->on_message(from, payload);
    const std::int64_t t1 = tracer->now_ns();
    std::uint32_t name = tracing_.names.outer[payload[0]];
    std::uint64_t parent = 0;
    if (payload[0] == tags::kSmrWrapped) {
      name = payload.size() > kWrappedInnerTag
                 ? tracing_.names.inner[payload[kWrappedInnerTag]]
                 : tracing_.names.other;
      // Slot spans: high bit set, group above the slot number.
      Decoder dec{ByteView(payload)};
      dec.u8();
      std::uint64_t group = dec.u32();
      std::uint64_t slot = dec.u64();
      parent = (1ULL << 63) | (group << 40) | slot;
    } else if (payload[0] == tags::kSmrRequest) {
      // tag, u32 length, then the command: kind, key, value, client, seq.
      Decoder dec{ByteView(payload)};
      dec.u8();
      if (auto cmd = smr::Command::from_wire(dec.bytes_view())) {
        parent = op_span_id(cmd->client_id, cmd->sequence);
      }
    }
    tracer->record(name, tracer->next_id(), parent, t0, t1);
  }

  smr::SmrNode& node() { return *node_; }

 private:
  std::unique_ptr<smr::SmrNode> node_;
  const Tracing& tracing_;
};

/// Wire traffic seen at send time, by outer and wrapped-inner tag.
struct TrafficCounts {
  std::uint64_t msgs = 0, bytes = 0;
  std::uint64_t wrapped = 0, wrapped_bytes = 0;
  std::array<std::uint64_t, 256> by_outer{};
  std::array<std::uint64_t, 256> by_inner{};
  friend bool operator==(const TrafficCounts&, const TrafficCounts&) = default;
};

class SimCluster {
 public:
  SimCluster(const Spec& spec, std::uint64_t seed, const Tracing& tracing,
             SessionMeter& meter)
      : tracing_(tracing), meter_(meter) {
    runtime::ClusterOptions options;
    options.cfg = consensus::QuorumConfig::create(kReplicas, 1, 1);
    options.net.seed = seed;
    options.key_seed = 42;
    options.extra_endpoints = spec.sessions;
    smr::SmrOptions smr;
    smr.pipeline_depth = kDepth;
    smr.max_batch = kBatch;
    smr.num_groups = spec.shards;
    smr.num_clients = spec.sessions;
    nodes_.resize(kReplicas, nullptr);
    options.node_factory = [this, smr](const runtime::ProcessContext& ctx,
                                       const runtime::NodeOptions&,
                                       runtime::Node::DecideCallback) {
      auto node = std::make_unique<HandledNode>(
          std::make_unique<smr::SmrNode>(ctx, smr, nullptr), tracing_);
      nodes_[ctx.id] = &node->node();
      return node;
    };
    cluster_ = std::make_unique<runtime::Cluster>(
        options, std::vector<Value>(kReplicas, Value::of_string("service")));
    host_ = std::make_unique<MeteredHost>(cluster_->scheduler(), meter_);

    for (std::uint32_t k = 0; k < spec.sessions; ++k) {
      const ProcessId pid = kReplicas + k;
      smr::SessionConfig scfg;
      scfg.n = kReplicas;
      scfg.f = 1;
      scfg.first_gateway = k % kReplicas;
      scfg.num_shards = spec.shards;
      scfg.request_timeout = 6'000;  // make_sim_service's default
      scfg.request_deadline = kDeadlineUs;
      scfg.max_in_flight = spec.window;
      scfg.keys = cluster_->keys();
      auto session = std::make_unique<smr::ClientSession>(
          *host_, cluster_->network().endpoint(pid), scfg);
      cluster_->network().attach(
          pid, [this, s = session.get()](ProcessId from, const Bytes& payload) {
            Metered m(meter_);
            Tracer* tracer = tracing_.tracer;
            if (tracer == nullptr) {
              s->on_message(from, payload);
              return;
            }
            const std::int64_t t0 = tracer->now_ns();
            s->on_message(from, payload);
            tracer->record(tracing_.names.session_reply, tracer->next_id(),
                           op_span_id(peek_u64(payload, 1), peek_u64(payload, 9)),
                           t0, tracer->now_ns());
          });
      sessions_.push_back(std::move(session));
    }
  }

  void start() { cluster_->start(); }
  /// One scheduler step; false when the event queue drained.
  bool step() { return cluster_->scheduler().step(); }
  TimePoint now() const { return host_->now(); }
  smr::ClientSession& session(std::uint32_t k) { return *sessions_[k]; }
  std::uint32_t sessions() const {
    return static_cast<std::uint32_t>(sessions_.size());
  }
  smr::SmrNode& node(ProcessId id) { return *nodes_[id]; }
  net::SimNetwork& network() { return cluster_->network(); }

  /// Service::stores_agree: every replica's state digest matches.
  bool stores_agree() const {
    for (ProcessId id = 1; id < kReplicas; ++id) {
      if (nodes_[id]->state_digest() != nodes_[0]->state_digest()) return false;
    }
    return true;
  }

 private:
  const Tracing& tracing_;
  SessionMeter& meter_;
  std::vector<smr::SmrNode*> nodes_;
  std::unique_ptr<runtime::Cluster> cluster_;
  std::unique_ptr<MeteredHost> host_;
  std::vector<std::unique_ptr<smr::ClientSession>> sessions_;
};

/// Closed-loop load: every session keeps spec.window ops outstanding and
/// submits the next generated op from the previous one's completion.
class SimLoad {
 public:
  SimLoad(SimCluster& cluster, const Spec& spec, std::uint64_t seed,
          Tracer* tracer, SessionMeter& meter, Clock::time_point epoch)
      : c_(cluster), spec_(spec), seed_(seed), source_(seed), tracer_(tracer),
        meter_(meter), epoch_(epoch), next_seq_(cluster.sessions(), 1) {
    if (tracer_) {
      op_name_ = tracer_->intern("op");
      submit_name_ = tracer_->intern("session.submit");
    }
  }

  void submit(std::uint32_t k) {
    OpSlot& op = ops_.emplace_back();
    op.index = ops_.size() - 1;
    op.session = k;
    op.kind = source_.next_kind();
    op.key = source_.next_key();
    op.invoked = c_.now();
    op.due_ns = wall_ns();
    const std::uint64_t seq = next_seq_[k]++;
    auto& session = c_.session(k);
    const std::int64_t t0 = tracer_ ? tracer_->now_ns() : 0;
    smr::Future<smr::Reply> future;
    {
      Metered m(meter_);
      future = op.kind == smr::OpKind::Put
                   ? session.put(key_name(op.key),
                                 make_value(seed_, op.index, spec_.value_bytes))
                   : session.get(key_name(op.key));
    }
    if (tracer_) {
      tracer_->record(submit_name_, tracer_->next_id(),
                      op_span_id(session.id(), seq), t0, tracer_->now_ns());
    }
    ++outstanding_;
    future.on_ready([this, &op, k, seq](const smr::Reply& reply) {
      op.returned = c_.now();
      op.done_ns = wall_ns();
      op.completed = true;
      record_reply(op, reply, seed_, spec_.value_bytes, ops_.size());
      --outstanding_;
      if (++completed_ == spec_.rss_ops) rss_mb_ = self_usage().max_rss_mb;
      if (tracer_) {
        tracer_->record(op_name_, op_span_id(c_.session(k).id(), seq), 0,
                        op.due_ns, op.done_ns);
      }
      if (generating_ && (limit_ == 0 || ops_.size() < limit_)) submit(k);
    });
  }

  void begin() {
    for (std::uint32_t k = 0; k < c_.sessions(); ++k) {
      for (std::uint32_t w = 0; w < spec_.window; ++w) submit(k);
    }
  }

  /// Steps the simulator until `done()` holds (checked every 64 steps) or
  /// the event queue drains.
  template <typename Done>
  bool run(Done&& done) {
    while (!done()) {
      for (int i = 0; i < 64; ++i) {
        if (!c_.step()) return done();
      }
    }
    return true;
  }

  std::int64_t wall_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  void stop_generating() { generating_ = false; }
  void set_limit(std::uint64_t ops) { limit_ = ops; }
  std::uint64_t outstanding() const { return outstanding_; }
  std::uint64_t completed() const { return completed_; }
  std::deque<OpSlot>& ops() { return ops_; }
  /// Peak RSS once spec.rss_ops ops completed (or now, if fewer did).
  double rss_mb() const { return rss_mb_ > 0 ? rss_mb_ : self_usage().max_rss_mb; }
  std::uint64_t rss_ops() const { return std::min(completed_, spec_.rss_ops); }

 private:
  SimCluster& c_;
  const Spec& spec_;
  std::uint64_t seed_;
  OpSource source_;
  Tracer* tracer_;
  SessionMeter& meter_;
  Clock::time_point epoch_;
  std::vector<std::uint64_t> next_seq_;
  std::deque<OpSlot> ops_;
  bool generating_ = true;
  std::uint64_t limit_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t completed_ = 0;
  double rss_mb_ = 0;
  std::uint32_t op_name_ = 0, submit_name_ = 0;
};

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Drives the cluster until every replica applied every op and the stores
/// can be compared; false if that does not happen within the budget.
bool converge(SimCluster& cluster, SimLoad& load) {
  const auto give_up = Clock::now() + std::chrono::seconds(60);
  load.stop_generating();
  load.run([&] { return load.outstanding() == 0 || Clock::now() > give_up; });
  std::uint64_t target = 0;
  for (const auto& op : load.ops()) {
    if (op.completed && !op.timed_out) ++target;
  }
  return load.run([&] {
    if (Clock::now() > give_up) return true;
    for (ProcessId id = 0; id < kReplicas; ++id) {
      if (cluster.node(id).applied_commands() < target) return false;
    }
    return true;
  }) && Clock::now() <= give_up && cluster.stores_agree();
}

std::uint64_t applied_slots(smr::SmrNode& node) {
  std::uint64_t slots = 0;
  for (GroupId g = 0; g < node.num_groups(); ++g) {
    slots += node.engine(g).next_to_apply() - 1;
  }
  return slots;
}

/// One fixed-size phase of the traced run: exactly `ops` generated ops on a
/// fresh cluster, so every count it takes repeats exactly at a given seed.
struct Phase {
  double cpu_us = 0;
  ProcUsage usage;
  TrafficCounts traffic;
  std::uint64_t payload_allocs = 0;
  std::uint64_t slots = 0;
  std::uint64_t applied = 0;
  double p50_ticks = 0;
  bool agree = false;
  AuditResult audit;
  std::uint64_t failovers = 0, rejected = 0, deadline = 0, demotions = 0;
};

Phase run_phase(const Spec& spec, std::uint64_t seed, std::uint64_t ops,
                Tracing& tracing, std::vector<Bytes>* capture,
                Clock::time_point epoch, Values* engine_values) {
  Phase p;
  SessionMeter meter;
  SimCluster cluster(spec, seed, tracing, meter);
  std::uint64_t seen = 0;
  cluster.network().set_observer(
      [&](const net::Envelope& env, TimePoint, TimePoint) {
        const Bytes& payload = env.payload;
        if (payload.empty()) return;
        ++p.traffic.msgs;
        p.traffic.bytes += payload.size();
        ++p.traffic.by_outer[payload[0]];
        if (payload[0] == tags::kSmrWrapped) {
          ++p.traffic.wrapped;
          p.traffic.wrapped_bytes += payload.size();
          if (payload.size() > kWrappedInnerTag) {
            ++p.traffic.by_inner[payload[kWrappedInnerTag]];
          }
        }
        // Every 7th message, so the sample mixes every tag the run sends.
        if (capture != nullptr && capture->size() < 2048 && seen++ % 7 == 0) {
          capture->push_back(payload);
        }
      });
  SimLoad load(cluster, spec, seed, tracing.tracer, meter, epoch);
  load.set_limit(ops);
  const auto allocs0 = PayloadStats::allocs();
  const auto u0 = self_usage();
  cluster.start();
  load.begin();
  load.run([&] { return load.completed() >= ops; });
  const auto u1 = self_usage();
  p.payload_allocs = PayloadStats::allocs() - allocs0;
  p.usage = {u1.user_us - u0.user_us, u1.sys_us - u0.sys_us, u1.vcsw - u0.vcsw,
             u1.max_rss_mb};
  p.cpu_us = p.usage.user_us + p.usage.sys_us;
  p.slots = applied_slots(cluster.node(0));
  p.applied = cluster.node(0).applied_commands();
  if (engine_values) {
    std::vector<smr::SmrNode::EngineStats> stats;
    for (ProcessId id = 0; id < kReplicas; ++id) {
      stats.push_back(cluster.node(id).engine_stats());
    }
    add_engine_values(*engine_values, stats);
    (*engine_values)["engine.ops_per_slot"] =
        p.slots ? static_cast<double>(p.applied) / p.slots : 0;
  }
  for (std::uint32_t k = 0; k < cluster.sessions(); ++k) {
    p.failovers += cluster.session(k).failovers();
    p.rejected += cluster.session(k).rejected_replies();
    p.deadline += cluster.session(k).deadline_timeouts();
    p.demotions += cluster.session(k).gateway_demotions();
  }
  std::vector<double> ticks;
  for (const auto& op : load.ops()) {
    if (op.completed) ticks.push_back(static_cast<double>(op.returned - op.invoked));
  }
  p.p50_ticks = quantile(ticks, 0.5);
  cluster.network().set_observer(nullptr);
  p.agree = converge(cluster, load);
  p.audit = audit(load.ops());
  return p;
}

Report run_traced(const Args& args) {
  const Spec& spec = *args.spec;
  // Fixed op count per phase, scaled with the run length, so per-op counts
  // repeat exactly between runs at one seed.
  const std::uint64_t ops =
      std::max<std::uint64_t>(2000, static_cast<std::uint64_t>(3000 * args.seconds));
  const auto epoch = Clock::now();
  Tracing off;
  Phase a = run_phase(spec, args.seed, ops, off, nullptr, epoch, nullptr);

  Tracer tracer(epoch);
  Tracing on;
  on.tracer = &tracer;
  on.names.outer.fill(tracer.intern("replica.handle.other"));
  on.names.inner.fill(tracer.intern("replica.handle.other"));
  on.names.other = tracer.intern("replica.handle.other");
  for (const auto& [name, tag] : outer_tags()) {
    on.names.outer[tag] = tracer.intern("replica.handle." + name);
  }
  for (const auto& [name, tag] : inner_tags()) {
    on.names.inner[tag] = tracer.intern("replica.handle." + name);
  }
  on.names.session_reply = tracer.intern("session.handle.reply");
  std::vector<Bytes> captured;
  Report r;
  Values v;
  Phase b = run_phase(spec, args.seed, ops, on, &captured, epoch, &v);

  AuditResult both = a.audit;
  both.attempted += b.audit.attempted;
  both.failed += b.audit.failed;
  both.wrong += b.audit.wrong;
  both.linearizable = a.audit.linearizable && b.audit.linearizable;
  both.conclusive = a.audit.conclusive && b.audit.conclusive;
  if (both.violation.empty()) both.violation = b.audit.violation;
  r.apply_audit(both);
  r.correct = r.correct && a.agree && b.agree;
  // Tracing must not change what the simulator does.
  const bool repeat = a.traffic == b.traffic && a.payload_allocs == b.payload_allocs &&
                      a.slots == b.slots && a.applied == b.applied;
  r.note("counts_repeat", repeat ? "true" : "false");
  r.note("stores_agree", a.agree && b.agree ? "true" : "false");
  r.note_number("phase_ops", static_cast<double>(ops));

  const double n = static_cast<double>(ops);
  const auto& t = b.traffic;
  v["bench.samples"] = n;
  v["bench.trace_overhead_frac"] = b.cpu_us / a.cpu_us - 1;
  // The one process hosts every replica and session.
  v["proc.replica_user_us_per_op"] = b.usage.user_us / n;
  v["proc.replica_sys_us_per_op"] = b.usage.sys_us / n;
  v["proc.replica_vcsw_per_op"] = b.usage.vcsw / n;
  v["session.failovers_per_kop"] = b.failovers * 1000.0 / n;
  v["session.rejected_replies"] = static_cast<double>(b.rejected);
  v["session.deadline_timeouts"] = static_cast<double>(b.deadline);
  v["session.gateway_demotions"] = static_cast<double>(b.demotions);
  v["session.submit_us"] = tracer.totals("session.submit").mean_us();
  v["session.handle_us.reply"] = tracer.totals("session.handle.reply").mean_us();
  const double wrapped = static_cast<double>(t.wrapped);
  v["consensus.wrapped_msgs_per_slot"] = b.slots ? wrapped / b.slots : 0;
  v["consensus.bytes_per_op"] = t.wrapped_bytes / n;
  v["consensus.slow_path_msg_share"] =
      wrapped ? (t.by_inner[tags::kAckSig] + t.by_inner[tags::kCommit]) / wrapped : 0;
  v["smr.request_msgs_per_op"] = t.by_outer[tags::kSmrRequest] / n;
  v["smr.reply_msgs_per_op"] = t.by_outer[tags::kSmrReply] / n;
  v["viewsync.wish_msgs_per_kop"] = t.by_inner[tags::kWish] * 1000.0 / n;
  v["sim.msgs_per_op"] = t.msgs / n;
  v["sim.bytes_per_op"] = t.bytes / n;
  v["sim.p50_ticks"] = b.p50_ticks;
  v["codec.payload_allocs_per_op"] = b.payload_allocs / n;
  add_unit_costs(v, r, captured, /*wire_payloads=*/true);
  // Handlers of messages a fault-free run never sends (catch-up, snapshot
  // transfer, view change) are in the record when they ran, not in the
  // metric table.
  std::string rare = "{";
  for (const auto* tags_list : {&outer_tags(), &inner_tags()}) {
    for (const auto& [name, tag] : *tags_list) {
      const auto totals = tracer.totals("replica.handle." + name);
      const std::string metric = "replica.handle_us." + name;
      const bool in_table = std::any_of(
          layer_metrics().begin(), layer_metrics().end(),
          [&](const MetricDef& d) { return metric == d.name; });
      if (in_table) {
        v[metric] = totals.mean_us();
      } else if (totals.count > 0) {
        rare += (rare.size() > 1 ? ", \"" : "\"") + name + "\": " +
                std::to_string(totals.mean_us());
      }
    }
  }
  r.note("replica_handle_us_other", rare + "}");
  r.emit(layer_metrics(), v);
  r.note_number("spans", static_cast<double>(tracer.size()));
  if (!args.trace_file.empty() && !tracer.write_chrome(args.trace_file, 50'000)) {
    r.note("trace_file_error", "true");
  }
  return r;
}

/// One cluster of an untraced run: built up to the first op served
/// (kSetups times, the last build carrying the load), then driven through
/// the window its gate returns; audited once every op settled.
ClusterFigures sim_cluster(const Spec& spec, std::uint64_t seed,
                           const WindowGate& gate) {
  ClusterFigures f;
  const Tracing off;
  const auto epoch = Clock::now();
  SessionMeter meter;
  std::unique_ptr<SimCluster> cluster;
  std::unique_ptr<SimLoad> load;
  for (int i = 0; i < kSetups; ++i) {
    load.reset();
    cluster.reset();
    const auto t0 = Clock::now();
    cluster = std::make_unique<SimCluster>(spec, seed, off, meter);
    load = std::make_unique<SimLoad>(*cluster, spec, seed, nullptr, meter, epoch);
    cluster->start();
    load->set_limit(1);
    load->submit(0);
    load->run([&] { return load->completed() == 1; });
    f.setups_s[i] = seconds_since(t0);
  }
  const Window window = gate();

  load->set_limit(0);
  load->begin();
  load->run([&] { return Clock::now() >= window.warm_end; });
  const ProcUsage u0 = self_usage();
  const std::int64_t meter0 = meter.ns;
  load->run([&] { return Clock::now() >= window.end; });
  const ProcUsage u1 = self_usage();
  // The cluster's process is single-threaded: its CPU is the replicas'
  // plus the sessions'.
  f.client_cpu_us = (meter.ns - meter0) / 1000.0;
  f.replica_cpu_us = (u1.user_us - u0.user_us) + (u1.sys_us - u0.sys_us) - f.client_cpu_us;
  f.rss_mb = load->rss_mb();
  f.rss_ops = load->rss_ops();

  f.settled = converge(*cluster, *load);
  f.set_audit(audit(load->ops()));
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
  };
  f.set_window(window_stats(load->ops(), ns(window.warm_end), ns(window.end),
                            ns(window.end)));
  f.measured = true;
  return f;
}

}  // namespace

Report run_sim(const Args& args) {
  if (args.trace) return run_traced(args);
  Report r;
  // One single-threaded process per cluster: the library keeps
  // process-wide counters and state, which clusters sharing a process
  // would contend on.
  const auto clusters = run_forked(
      concurrent_clusters(), args.seconds,
      [&](std::uint32_t k, const WindowGate& gate) {
        return sim_cluster(*args.spec, cluster_seed(args.seed, k), gate);
      });
  if (!clusters) {
    r.note("error", "\"a cluster process failed\"");
    return r;
  }
  add_end_to_end(r, *clusters);
  return r;
}

}  // namespace perfbench
