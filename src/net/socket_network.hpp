#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_guard.hpp"
#include "net/frame.hpp"
#include "net/link_policy.hpp"
#include "net/stats.hpp"
#include "net/transport.hpp"

/// \file socket_network.hpp
/// Real TCP transport: the one wall-clock runtime's network. Each locally
/// attached endpoint gets one epoll readiness-loop thread that owns its
/// sockets, timers, tasks and receive handler — the single-threaded-
/// replica discipline the engine relies on — behind the
/// attach/endpoint/post/arm_timer/cancel_timer/now_ticks surface that
/// engine::SocketHost adapts, so SmrNode, smr::ClientSession, sharding,
/// snapshots and the adaptive controller run over sockets unchanged.
/// Replicas may share a process (runtime::SocketSmrCluster) or each own
/// one (smr_server); either way every replica-to-replica message crosses
/// a TCP connection.
///
/// Wire protocol: length-prefixed frames (net/frame.hpp) with a
/// magic+version+ProcessId handshake opening each direction; empty frames
/// are idle heartbeats. Connection topology: every peer with a listen
/// address accepts; a replica dials listeners with LOWER ids (so exactly
/// one TCP connection exists per replica pair, used in both directions);
/// endpoints without a listen address (clients) dial every listener.
/// Dials retry with capped exponential backoff + jitter (LinkPolicy);
/// rx silence past the heartbeat timeout marks the peer down and the
/// dialer reconnects.
///
/// Zero-copy discipline (PR 4): outbound SharedBytes payloads are never
/// staged — the send queue keeps {4-byte header, SharedBytes} entries and
/// the loop scatter-gathers pending frames into one writev per wakeup
/// (write coalescing: syscalls amortize across pipelined slots). Inbound
/// bytes are recv'd straight into the connection's recycled FrameReader
/// buffer and handed to the receive handler through one recycled delivery
/// buffer per connection (ReceiveHandler takes `const Bytes&`, so exactly
/// one copy per frame, alloc-free in steady state — counted by
/// SocketStats delivery_allocs/delivery_reuses).
///
/// Unit tests never touch this file (morphling idiom): framing, backoff
/// and heartbeat policy are tested in memory (tests/test_frame.cpp);
/// sockets enter via the integration tests (tests/test_socket_transport,
/// tests/test_socket_smr and every wall-clock service test), the
/// smr_server/smr_client tools and the wall-clock benches.

namespace fastbft::net {

class SocketNetwork;

class SocketEndpoint final : public Transport {
 public:
  SocketEndpoint(SocketNetwork& net, ProcessId self)
      : net_(net), self_(self) {}

  void send(ProcessId to, SharedBytes payload) override;
  std::uint32_t cluster_size() const override;
  ProcessId self() const override { return self_; }

 private:
  SocketNetwork& net_;
  ProcessId self_;
};

/// One peer's address in the cluster map. A peer with no listen address
/// (port 0 and no adopted fd) is dial-only — the client role.
struct SocketPeer {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// An already-bound, already-listening fd to adopt instead of binding
  /// host:port (meaningful only for ids attached locally, which then own
  /// it: stop() closes it, started or not). This is how pre-bound port-0
  /// listeners reach their replicas, so nobody races on port numbers.
  int adopted_listen_fd = -1;

  bool listens() const { return port != 0 || adopted_listen_fd >= 0; }
};

/// A loopback listener bound ahead of any SocketNetwork: port 0 lets the
/// kernel pick a free port (hand the fd over as
/// SocketPeer::adopted_listen_fd and publish the port), a nonzero port
/// rebinds a recorded one. fd is -1 when binding failed.
struct LoopbackListener {
  int fd = -1;
  std::uint16_t port = 0;
};
LoopbackListener bind_loopback_listener(std::uint16_t port = 0);

struct SocketNetworkConfig {
  /// Replica cluster size (broadcast scope); ids [0, cluster_size) are
  /// replicas, ids beyond are client endpoints.
  std::uint32_t cluster_size = 0;

  /// Address table for ALL ids (replicas first, then clients). Size of
  /// this vector is total_size().
  std::vector<SocketPeer> peers;

  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// recv() chunk per readiness wakeup.
  std::size_t read_chunk_bytes = 64 * 1024;

  /// Max frames folded into one writev call (IOV_MAX/2 bound applies too).
  std::size_t writev_batch_frames = 64;

  /// Cap on frames queued per connection while the peer is unreachable;
  /// overflow drops the newest frame (BFT protocols tolerate loss —
  /// retransmission is the protocol's job, not the transport's).
  std::size_t max_queued_frames = 65536;

  /// Emulated one-way link latency: frames sit in the send queue until
  /// they are this old (microseconds). 0 = send immediately. Loopback
  /// RTTs are so far below real network RTTs that pipelining effects
  /// vanish into scheduler noise without it. Delay costs no CPU: held
  /// frames just extend the (microsecond-precision) epoll timeout, and a
  /// whole RTT's worth still leaves in one writev.
  Duration tx_delay_us = 0;

  LinkPolicyOptions link;
};

/// Multi-process TCP transport. Construct with the full cluster address
/// map, attach() the locally hosted ids, start(). Each attached id runs
/// its own epoll loop thread; cross-thread entry points (send from
/// another local endpoint, post) funnel through a task queue woken by an
/// eventfd.
class SocketNetwork {
 public:
  using Clock = std::chrono::steady_clock;
  using TimerKey = std::pair<TimePoint, std::uint64_t>;

  explicit SocketNetwork(SocketNetworkConfig config);
  ~SocketNetwork();

  SocketNetwork(const SocketNetwork&) = delete;
  SocketNetwork& operator=(const SocketNetwork&) = delete;

  /// Declares `id` locally hosted and registers its receive handler.
  /// Must be called before start().
  void attach(ProcessId id, ReceiveHandler handler);

  std::unique_ptr<SocketEndpoint> endpoint(ProcessId id);

  /// Binds/adopts listen sockets and spawns one loop thread per attached
  /// id. Dials start immediately (with backoff until peers appear).
  void start();

  /// Joins loop threads and closes every socket. Safe to call twice.
  void stop();

  void send(ProcessId from, ProcessId to, SharedBytes payload);

  /// Runs `fn` on `id`'s loop thread, interleaved with its handlers and
  /// timers. Thread-safe; tasks run in post order.
  void post(ProcessId id, std::function<void()> fn);

  /// Microseconds since construction (engine::SocketHost's tick unit).
  TimePoint now_ticks() const;

  /// Timers may be armed/cancelled only on `id`'s loop thread, or while
  /// no loop runs (setup/teardown) — asserted in invariant builds.
  TimerKey arm_timer(ProcessId id, TimePoint at_ticks,
                     std::function<void()> fn);
  void cancel_timer(ProcessId id, TimerKey key);

  /// The contract query engine::SocketHost reports to the engine's
  /// affinity checks: on `id`'s loop thread, or no loop bound.
  bool affinity_ok(ProcessId id) const {
    const auto& guard = loop_of(id)->guard;
    return !guard.bound() || guard.held();
  }

  std::uint32_t size() const { return config_.cluster_size; }
  std::uint32_t total_size() const {
    return static_cast<std::uint32_t>(config_.peers.size());
  }

  std::uint64_t delivered_count() const { return delivered_.load(); }
  std::uint64_t timers_fired() const { return timers_fired_.load(); }

  /// Counters for the link local `id` keeps toward `peer` (zeroes if no
  /// such link). Thread-safe.
  SocketCounters link_stats(ProcessId id, ProcessId peer) const;

  /// Aggregate across all local links plus loop-level events.
  SocketCounters stats() const;

  /// Human-readable per-link dump (the smr_server SIGTERM report).
  std::string stats_summary() const;

 private:
  enum class LinkState : std::uint8_t { Idle, Connecting, Ready };

  struct SendEntry {
    FrameHeader header;
    SharedBytes payload;
    std::size_t offset = 0;  // bytes of (header+payload) already written
    TimePoint ready_at = 0;  // tx_delay emulation: hold until this tick
  };

  /// Loop-thread-owned state for one peer connection (dialed or
  /// accepted). Only `stats` may be touched from other threads.
  struct Link {
    LinkState state = LinkState::Idle;
    int fd = -1;
    bool dialer = false;          // this side initiates connects
    bool peer_identified = false; // inbound handshake validated
    bool want_writable = false;   // EPOLLOUT armed
    bool ever_established = false;
    /// Bumped at every register/close so stale epoll events for a
    /// recycled fd number cannot be misattributed within one round.
    std::uint16_t gen = 0;
    TimePoint connect_started = 0;
    FrameReader reader;
    std::deque<SendEntry> sendq;
    Bytes delivery_buf;           // recycled const Bytes& for the handler
    LinkPolicy policy;
    SocketStats stats;

    explicit Link(std::size_t max_frame) : reader(max_frame) {}
  };

  /// A freshly accepted connection whose opening handshake has not
  /// arrived yet — not bound to a Link until the peer identifies itself.
  struct PendingAccept {
    int fd = -1;
    std::uint16_t gen = 0;
    FrameReader reader;
    TimePoint accepted_at = 0;
    explicit PendingAccept(std::size_t max_frame) : reader(max_frame) {}
  };

  /// Everything one attached endpoint's loop thread owns.
  struct Loop {
    ProcessId id = kNoProcess;
    int epoll_fd = -1;
    int wake_fd = -1;    // eventfd
    int listen_fd = -1;
    std::vector<std::unique_ptr<Link>> links;  // indexed by peer id
    std::vector<std::unique_ptr<PendingAccept>> pendings;  // slot vector

    std::mutex task_mutex;
    std::deque<std::function<void()>> tasks;
    /// True whenever `tasks` may be non-empty. drain_tasks runs after
    /// every delivery and timer (the FIFO contract), so the common "no
    /// tasks" case must cost one relaxed load, not a mutex round trip.
    std::atomic<bool> has_tasks{false};

    std::map<TimerKey, std::function<void()>> timers;
    std::uint64_t next_timer_seq = 0;

    /// Functional owner id: send() branches on it to run inline on the
    /// loop thread instead of paying an eventfd round trip, so it exists
    /// in every build type.
    std::atomic<std::thread::id> owner{};
    /// Contract enforcement (invariant builds only): loop-owned state —
    /// links, timers, send queues — is touched exclusively by the loop
    /// thread; a misrouted direct call is a hard failure instead of a
    /// silent data race. Bound by run_loop, unbound by stop() after join.
    FASTBFT_GUARD_MEMBER(guard);
    SocketStats stats;  // loop-level events (rejected accepts, ...)
  };

  Loop* loop_of(ProcessId id) const;
  void run_loop(Loop& loop);
  void loop_round(Loop& loop);
  void drain_tasks(Loop& loop);
  void service_links(Loop& loop, TimePoint now);
  TimePoint next_deadline(Loop& loop, TimePoint now) const;

  void start_connect(Loop& loop, Link& link, ProcessId peer, TimePoint now);
  void on_connect_writable(Loop& loop, Link& link, ProcessId peer);
  void established(Loop& loop, Link& link, ProcessId peer);
  void link_down(Link& link);
  void accept_ready(Loop& loop);
  void pending_readable(Loop& loop, std::size_t slot);
  void adopt_pending(Loop& loop, std::size_t slot, const Handshake& hs);
  void drop_pending(Loop& loop, std::size_t slot);
  void link_readable(Loop& loop, Link& link, ProcessId peer);
  bool parse_frames(Loop& loop, Link& link, ProcessId peer);
  void enqueue_frame(Link& link, SharedBytes payload, bool heartbeat);
  void flush_link(Loop& loop, Link& link, ProcessId peer);
  void deliver(Loop& loop, Link& link, ProcessId from, ByteView frame);
  void send_on_loop(Loop& loop, ProcessId to, SharedBytes payload);
  void wake(Loop& loop);
  void update_epoll(Loop& loop, Link& link, ProcessId peer);
  void assert_timer_owner(const Loop& loop) const;

  SocketNetworkConfig config_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<ReceiveHandler> handlers_;      // indexed by id, empty if remote
  std::vector<std::unique_ptr<Loop>> loops_;  // indexed by id, null if remote
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  bool started_ = false;
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> timers_fired_{0};
};

}  // namespace fastbft::net
