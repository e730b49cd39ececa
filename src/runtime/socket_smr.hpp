#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "consensus/config.hpp"
#include "consensus/types.hpp"
#include "crypto/signer.hpp"
#include "engine/socket_host.hpp"
#include "net/socket_network.hpp"
#include "smr/session.hpp"
#include "smr/smr_node.hpp"

/// \file socket_smr.hpp
/// The wall-clock SMR runtime over net::SocketNetwork: one SocketSmrServer
/// hosts ONE replica; one SocketSmrClient hosts K client sessions. Each
/// owns its own SocketNetwork, so every message between them crosses a
/// loopback (or real) TCP connection whether they share a process
/// (runtime::SocketSmrCluster, smr::make_socket_service) or not
/// (tools/smr_server, tools/smr_client, bench E15). Every endpoint derives
/// identical key material from the shared `key_seed` (crypto::KeyStore is
/// deterministic), so signatures verify without any key exchange.

namespace fastbft::runtime {

/// Shared cluster topology: every server and client process must be
/// constructed from an identical copy of this (flags or fork).
struct SocketClusterConfig {
  consensus::QuorumConfig cfg;
  /// Client endpoint ids are cfg.n .. cfg.n + num_clients - 1, across
  /// ALL client processes combined.
  std::uint32_t num_clients = 0;
  std::uint64_t key_seed = 42;
  Duration sync_base_timeout_us = 25'000;
  smr::SmrOptions smr;
  /// Address table for every id (replicas then clients); clients have no
  /// listen address. Size must be cfg.n + num_clients.
  std::vector<net::SocketPeer> peers;
  net::LinkPolicyOptions link;
  /// Emulated one-way link latency (net::SocketNetworkConfig::tx_delay_us);
  /// 0 = raw loopback. Must match across every process in the cluster.
  Duration tx_delay_us = 0;
};

/// One replica.
class SocketSmrServer {
 public:
  /// `on_commit` (optional) observes every applied slot, on the loop
  /// thread, after the server's own accounting.
  SocketSmrServer(SocketClusterConfig config, ProcessId id,
                  smr::SmrNode::CommitCallback on_commit = {});
  ~SocketSmrServer();

  SocketSmrServer(const SocketSmrServer&) = delete;
  SocketSmrServer& operator=(const SocketSmrServer&) = delete;

  void start();
  void stop();

  ProcessId id() const { return id_; }

  /// Commands applied by this replica (all groups, snapshot installs
  /// included; thread-safe).
  std::uint64_t applied_commands() const;
  std::uint64_t snapshots_installed() const {
    return snapshot_installs_.load();
  }

  /// Engine gauges (relaxed atomics inside SmrNode; thread-safe).
  smr::SmrNode::EngineStats engine_stats() const {
    return node_->engine_stats();
  }

  net::SocketCounters socket_stats() const { return net_.stats(); }
  const net::SocketNetwork& network() const { return net_; }

  /// The SIGTERM dump: per-link socket counters plus engine gauges.
  std::string stats_summary() const;

  /// The replica itself (engine window, catch-up, KV store): only while
  /// its loop thread is not running — before start() or after stop().
  smr::SmrNode& node() { return *node_; }
  const smr::SmrNode& node() const { return *node_; }

 private:
  SocketClusterConfig config_;
  ProcessId id_;
  net::SocketNetwork net_;
  std::shared_ptr<const crypto::KeyStore> keys_;
  consensus::LeaderFn leader_of_;
  std::unique_ptr<engine::SocketHost> host_;
  std::unique_ptr<smr::SmrNode> node_;
  /// Applied commands per consensus group: a snapshot install replaces
  /// one group's count, not the node's.
  std::vector<std::atomic<std::uint64_t>> applied_;
  std::atomic<std::uint64_t> snapshot_installs_{0};
  bool started_ = false;
};

/// Per-process client options on top of the shared cluster config.
struct SocketClientOptions {
  /// First endpoint id hosted by this process (>= cfg.n).
  ProcessId first_client_id = 0;
  /// Sessions hosted by this process (ids first_client_id .. +sessions-1).
  std::uint32_t sessions = 1;
  std::uint32_t num_shards = 1;
  Duration request_timeout_us = 100'000;
  Duration request_deadline_us = 0;
  std::uint32_t max_in_flight = 8;
};

/// One client process hosting K sessions, each with its own endpoint id,
/// socket loop thread and engine host. Typed ops on session(k) are
/// thread-safe.
class SocketSmrClient {
 public:
  SocketSmrClient(SocketClusterConfig config, SocketClientOptions options);

  /// Sessions take `session` as their config, with n, f and keys filled in
  /// here; the session with endpoint id `pid` starts at gateway
  /// (session.first_gateway + pid) % n.
  SocketSmrClient(SocketClusterConfig config, ProcessId first_client_id,
                  std::uint32_t sessions, smr::SessionConfig session);
  ~SocketSmrClient();

  SocketSmrClient(const SocketSmrClient&) = delete;
  SocketSmrClient& operator=(const SocketSmrClient&) = delete;

  void start();
  void stop();

  std::uint32_t sessions() const {
    return static_cast<std::uint32_t>(sessions_.size());
  }
  smr::ClientSession& session(std::uint32_t k) { return *sessions_[k]; }

  /// Sum of completed requests across sessions (thread-safe).
  std::uint64_t completed() const;
  std::uint64_t deadline_timeouts() const;

  net::SocketCounters socket_stats() const { return net_.stats(); }
  std::string stats_summary() const { return net_.stats_summary(); }

 private:
  SocketClusterConfig config_;
  net::SocketNetwork net_;
  std::shared_ptr<const crypto::KeyStore> keys_;
  std::vector<std::unique_ptr<engine::SocketHost>> hosts_;
  std::vector<std::unique_ptr<smr::ClientSession>> sessions_;
  bool started_ = false;
};

/// The whole replica set inside the calling process: n SocketSmrServers,
/// each with its own SocketNetwork and a loopback listener pre-bound on a
/// kernel-chosen port, so every consensus message crosses a real TCP
/// connection — what smr_server ships, minus the process boundary. The
/// wall-clock tests and benches and smr::make_socket_service run on it.
///
/// crash(id) stops that server (its sockets close; peers retry with
/// backoff). restart(id) starts a fresh server with empty volatile state
/// on the same port, which recovers through the protocol's own catch-up
/// and snapshot state transfer (docs/CATCHUP.md).
///
/// One driver thread calls everything here. server(id).node() and
/// correct_stores_agree() are valid only while that replica's loop does
/// not run: before start(), after stop(), or after crash().
class SocketSmrCluster {
 public:
  /// `config.peers` is filled in here: one pre-bound loopback listener
  /// per replica, then `config.num_clients` dial-only client entries.
  explicit SocketSmrCluster(SocketClusterConfig config);
  ~SocketSmrCluster();

  SocketSmrCluster(const SocketSmrCluster&) = delete;
  SocketSmrCluster& operator=(const SocketSmrCluster&) = delete;

  /// The shared topology with the real ports: build SocketSmrClients
  /// (first_client_id >= n) from it.
  const SocketClusterConfig& config() const { return config_; }

  /// Seeds every live replica's slot windows and starts its loop.
  void start();

  /// Stops every replica. Safe to call twice.
  void stop();

  /// Fail-stop, before or mid-run. Before start() the replica never runs
  /// and its listener closes, so peers' dials are refused from the start.
  void crash(ProcessId id);

  /// Mid-run crash-recovery of a crashed replica: a fresh server on the
  /// same port. Its applied count and slot order restart from zero. False
  /// (the replica stays crashed) if the port cannot be bound again within
  /// 2 s — another socket took it while the replica was down.
  bool restart(ProcessId id);

  /// Before start(): injected into every replica's pending queue, so the
  /// first window's proposals already carry real batches. After: sent as
  /// an SMR_REQUEST broadcast from `gateway` (dropped if it crashed).
  void submit(const smr::Command& cmd, ProcessId gateway = 0);

  /// Blocks until every non-crashed replica applied >= `commands`
  /// commands, or the timeout elapses.
  bool wait_applied(std::uint64_t commands,
                    std::chrono::milliseconds timeout);

  /// Replica `id`'s current incarnation.
  SocketSmrServer& server(ProcessId id) { return *servers_[id]; }
  const SocketSmrServer& server(ProcessId id) const { return *servers_[id]; }
  bool is_faulty(ProcessId id) const { return faulty_[id]; }

  /// Slots in the order replica `id` applied them in `group` (in-order
  /// apply holds iff this is 1, 2, 3, ... — or starts later after a
  /// snapshot install).
  std::vector<Slot> applied_slots(ProcessId id, GroupId group = 0) const;

  /// Sums over the replicas' networks (current incarnations).
  std::uint64_t delivered_messages() const;
  net::SocketCounters socket_stats() const;

  /// True iff every correct replica's state digest is identical; only
  /// after stop().
  bool correct_stores_agree() const;

 private:
  std::unique_ptr<SocketSmrServer> make_server(ProcessId id, int listen_fd);

  SocketClusterConfig config_;
  std::vector<std::unique_ptr<SocketSmrServer>> servers_;
  std::vector<bool> faulty_;

  mutable std::mutex mutex_;
  std::condition_variable applied_cv_;
  std::vector<std::vector<std::vector<Slot>>> applied_slots_;  // [id][group]
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace fastbft::runtime
