#include "runtime/socket_smr.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <thread>

#include "common/assert.hpp"
#include "consensus/selection.hpp"

namespace fastbft::runtime {

namespace {

net::SocketNetworkConfig make_socket_net_config(
    const SocketClusterConfig& config) {
  FASTBFT_ASSERT(
      config.peers.size() == config.cfg.n + config.num_clients,
      "peers table must cover every replica and client endpoint");
  net::SocketNetworkConfig ncfg;
  ncfg.cluster_size = config.cfg.n;
  ncfg.peers = config.peers;
  ncfg.link = config.link;
  ncfg.tx_delay_us = config.tx_delay_us;
  return ncfg;
}

}  // namespace

// --- SocketSmrServer ---------------------------------------------------------

SocketSmrServer::SocketSmrServer(SocketClusterConfig config, ProcessId id,
                                 smr::SmrNode::CommitCallback on_commit)
    : config_(std::move(config)),
      id_(id),
      net_(make_socket_net_config(config_)),
      keys_(std::make_shared<const crypto::KeyStore>(config_.key_seed,
                                                     config_.cfg.n)),
      leader_of_(consensus::round_robin_leader(config_.cfg.n)),
      applied_(std::max(1u, config_.smr.num_groups)) {
  FASTBFT_ASSERT(id_ < config_.cfg.n, "server id out of range");
  smr::SmrOptions smr_options = config_.smr;
  smr_options.node.sync.base_timeout = config_.sync_base_timeout_us;
  smr_options.num_clients = config_.num_clients;

  host_ = std::make_unique<engine::SocketHost>(net_, id_);
  engine::EngineContext ectx{config_.cfg, id_, keys_, leader_of_,
                             /*group=*/0, /*verify_cache=*/nullptr};
  node_ = std::make_unique<smr::SmrNode>(
      *host_, std::move(ectx), net_.endpoint(id_), smr_options,
      [this, on_commit = std::move(on_commit)](
          ProcessId pid, GroupId group, Slot slot,
          const std::vector<smr::Command>& commands) {
        applied_[group].fetch_add(commands.size(), std::memory_order_relaxed);
        if (on_commit) on_commit(pid, group, slot, commands);
      });
  node_->set_install_callback(
      [this](ProcessId, GroupId group, const smr::Snapshot& snap) {
        // Installed state subsumes the group's commands below the
        // boundary; keep the monotone max so applied_commands() stays
        // comparable with peers that executed every command themselves.
        auto& applied = applied_[group];
        std::uint64_t seen = applied.load(std::memory_order_relaxed);
        while (seen < snap.applied_commands &&
               !applied.compare_exchange_weak(seen, snap.applied_commands,
                                              std::memory_order_relaxed)) {
        }
        snapshot_installs_.fetch_add(1, std::memory_order_relaxed);
      });
  net_.attach(id_, [this](ProcessId from, const Bytes& payload) {
    node_->on_message(from, payload);
  });
}

SocketSmrServer::~SocketSmrServer() { stop(); }

void SocketSmrServer::start() {
  FASTBFT_ASSERT(!started_, "already started");
  started_ = true;
  // Seed before the loop thread exists: slot windows open and view-1
  // timers arm single-threaded.
  node_->start();
  net_.start();
}

void SocketSmrServer::stop() { net_.stop(); }

std::uint64_t SocketSmrServer::applied_commands() const {
  std::uint64_t sum = 0;
  for (const auto& count : applied_) sum += count.load();
  return sum;
}

std::string SocketSmrServer::stats_summary() const {
  std::ostringstream out;
  out << "replica " << id_ << " applied " << applied_commands()
      << " commands (" << node_->noop_slots() << " noop slots), "
      << snapshots_installed() << " snapshot installs\n";
  const auto engine = engine_stats();
  out << "engine: depth " << engine.effective_depth << ", batch "
      << engine.effective_batch << ", parked high-water "
      << engine.parked_high_water << "; net delivered "
      << net_.delivered_count() << ", timers fired " << net_.timers_fired()
      << "\n";
  out << net_.stats_summary();
  return out.str();
}

// --- SocketSmrClient ---------------------------------------------------------

SocketSmrClient::SocketSmrClient(SocketClusterConfig config,
                                 SocketClientOptions options)
    : SocketSmrClient(std::move(config), options.first_client_id,
                      options.sessions, [&options] {
                        smr::SessionConfig session;
                        session.num_shards = options.num_shards;
                        session.request_timeout = options.request_timeout_us;
                        session.request_deadline = options.request_deadline_us;
                        session.max_in_flight = options.max_in_flight;
                        return session;
                      }()) {}

SocketSmrClient::SocketSmrClient(SocketClusterConfig config,
                                 ProcessId first_client_id,
                                 std::uint32_t sessions,
                                 smr::SessionConfig session)
    : config_(std::move(config)),
      net_(make_socket_net_config(config_)),
      keys_(std::make_shared<const crypto::KeyStore>(config_.key_seed,
                                                     config_.cfg.n)) {
  FASTBFT_ASSERT(first_client_id >= config_.cfg.n,
                 "client ids start after the replicas");
  FASTBFT_ASSERT(first_client_id + sessions <=
                     config_.cfg.n + config_.num_clients,
                 "client ids exceed the cluster's endpoint table");
  session.n = config_.cfg.n;
  session.f = config_.cfg.f;
  session.keys = keys_;
  for (std::uint32_t k = 0; k < sessions; ++k) {
    const ProcessId pid = first_client_id + k;
    hosts_.push_back(std::make_unique<engine::SocketHost>(net_, pid));
    smr::SessionConfig scfg = session;
    scfg.first_gateway = (session.first_gateway + pid) % config_.cfg.n;
    sessions_.push_back(std::make_unique<smr::ClientSession>(
        *hosts_[k], net_.endpoint(pid), scfg));
    net_.attach(pid, [this, k](ProcessId from, const Bytes& payload) {
      sessions_[k]->on_message(from, payload);
    });
  }
}

SocketSmrClient::~SocketSmrClient() { stop(); }

void SocketSmrClient::start() {
  FASTBFT_ASSERT(!started_, "already started");
  started_ = true;
  net_.start();
}

void SocketSmrClient::stop() { net_.stop(); }

std::uint64_t SocketSmrClient::completed() const {
  std::uint64_t sum = 0;
  for (const auto& s : sessions_) sum += s->completed();
  return sum;
}

std::uint64_t SocketSmrClient::deadline_timeouts() const {
  std::uint64_t sum = 0;
  for (const auto& s : sessions_) sum += s->deadline_timeouts();
  return sum;
}

// --- SocketSmrCluster --------------------------------------------------------

SocketSmrCluster::SocketSmrCluster(SocketClusterConfig config)
    : config_(std::move(config)),
      faulty_(config_.cfg.n, false),
      applied_slots_(config_.cfg.n,
                     std::vector<std::vector<Slot>>(
                         std::max(1u, config_.smr.num_groups))) {
  const std::uint32_t n = config_.cfg.n;
  config_.peers.assign(n + config_.num_clients, net::SocketPeer{});
  std::vector<int> listen_fds;
  for (ProcessId id = 0; id < n; ++id) {
    const net::LoopbackListener listener = net::bind_loopback_listener();
    FASTBFT_ASSERT(listener.fd >= 0, "cannot bind a loopback listener");
    config_.peers[id].port = listener.port;
    listen_fds.push_back(listener.fd);
  }
  for (ProcessId id = 0; id < n; ++id) {
    servers_.push_back(make_server(id, listen_fds[id]));
  }
}

SocketSmrCluster::~SocketSmrCluster() { stop(); }

std::unique_ptr<SocketSmrServer> SocketSmrCluster::make_server(ProcessId id,
                                                               int listen_fd) {
  SocketClusterConfig own = config_;
  own.peers[id].adopted_listen_fd = listen_fd;
  return std::make_unique<SocketSmrServer>(
      std::move(own), id,
      [this](ProcessId pid, GroupId group, Slot slot,
             const std::vector<smr::Command>&) {
        std::lock_guard<std::mutex> lock(mutex_);
        applied_slots_[pid][group].push_back(slot);
        applied_cv_.notify_all();
      });
}

void SocketSmrCluster::start() {
  FASTBFT_ASSERT(!started_, "already started");
  started_ = true;
  for (ProcessId id = 0; id < config_.cfg.n; ++id) {
    if (!faulty_[id]) servers_[id]->start();
  }
}

void SocketSmrCluster::stop() {
  for (auto& server : servers_) server->stop();
  stopped_ = true;
}

void SocketSmrCluster::crash(ProcessId id) {
  FASTBFT_ASSERT(id < config_.cfg.n, "crash: id out of range");
  faulty_[id] = true;
  servers_[id]->stop();  // closes its listener, started or not
}

bool SocketSmrCluster::restart(ProcessId id) {
  FASTBFT_ASSERT(id < config_.cfg.n, "restart: id out of range");
  FASTBFT_ASSERT(started_ && !stopped_, "restart: only mid-run");
  FASTBFT_ASSERT(faulty_[id], "restart: replica never crashed");
  // Peers only know the recorded port. A lingering connection on it may
  // hold it for a while; a socket that took it as its own local port
  // holds it for as long as it lives.
  net::LoopbackListener listener;
  for (int attempt = 0; attempt < 200; ++attempt) {
    listener = net::bind_loopback_listener(config_.peers[id].port);
    if (listener.fd >= 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (listener.fd < 0) return false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& slots : applied_slots_[id]) slots.clear();
  }
  servers_[id] = make_server(id, listener.fd);
  servers_[id]->start();
  faulty_[id] = false;
  return true;
}

void SocketSmrCluster::submit(const smr::Command& cmd, ProcessId gateway) {
  FASTBFT_ASSERT(gateway < config_.cfg.n, "submit: gateway out of range");
  if (!started_) {
    const Bytes payload = smr::SmrNode::encode_request(cmd);
    for (auto& server : servers_) server->node().on_message(gateway, payload);
    return;
  }
  // SmrNode::submit only touches the node's transport, which any thread
  // may use.
  if (!faulty_[gateway]) servers_[gateway]->node().submit(cmd);
}

bool SocketSmrCluster::wait_applied(std::uint64_t commands,
                                    std::chrono::milliseconds timeout) {
  auto reached = [&] {
    for (ProcessId id = 0; id < config_.cfg.n; ++id) {
      if (!faulty_[id] && servers_[id]->applied_commands() < commands) {
        return false;
      }
    }
    return true;
  };
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!reached()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    // Commits notify; snapshot installs do not, hence the re-check.
    applied_cv_.wait_for(lock, std::chrono::milliseconds(10));
  }
  return true;
}

std::vector<Slot> SocketSmrCluster::applied_slots(ProcessId id,
                                                  GroupId group) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return applied_slots_[id][group];
}

std::uint64_t SocketSmrCluster::delivered_messages() const {
  std::uint64_t sum = 0;
  for (const auto& server : servers_) {
    sum += server->network().delivered_count();
  }
  return sum;
}

net::SocketCounters SocketSmrCluster::socket_stats() const {
  net::SocketCounters sum;
  for (const auto& server : servers_) sum.merge(server->socket_stats());
  return sum;
}

bool SocketSmrCluster::correct_stores_agree() const {
  FASTBFT_ASSERT(stopped_, "store introspection only after stop()");
  std::optional<crypto::Digest> first;
  for (ProcessId id = 0; id < config_.cfg.n; ++id) {
    if (faulty_[id]) continue;
    const crypto::Digest digest = servers_[id]->node().state_digest();
    if (!first) {
      first = digest;
    } else if (digest != *first) {
      return false;
    }
  }
  return true;
}

}  // namespace fastbft::runtime
