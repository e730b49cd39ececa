#include "net/socket_network.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <sstream>

#include "common/assert.hpp"

namespace fastbft::net {

namespace {

// epoll_event.data.u64 layout: kind(high 16) | gen(16) | index(32).
enum : std::uint64_t { kTagWake = 0, kTagListen = 1, kTagLink = 2,
                       kTagPending = 3 };

std::uint64_t make_tag(std::uint64_t kind, std::uint16_t gen,
                       std::uint32_t index) {
  return (kind << 48) | (static_cast<std::uint64_t>(gen) << 32) | index;
}

int make_tcp_socket() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd >= 0) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

bool make_addr(const std::string& host, std::uint16_t port,
               sockaddr_in& out) {
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

}  // namespace

LoopbackListener bind_loopback_listener(std::uint16_t port) {
  LoopbackListener out;
  const int fd = make_tcp_socket();
  if (fd < 0) return out;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::listen(fd, 128) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return out;
  }
  out.fd = fd;
  out.port = ntohs(addr.sin_port);
  return out;
}

void SocketEndpoint::send(ProcessId to, SharedBytes payload) {
  net_.send(self_, to, std::move(payload));
}

std::uint32_t SocketEndpoint::cluster_size() const { return net_.size(); }

SocketNetwork::SocketNetwork(SocketNetworkConfig config)
    : config_(std::move(config)),
      handlers_(config_.peers.size()),
      loops_(config_.peers.size()) {
  FASTBFT_ASSERT(config_.cluster_size <= config_.peers.size(),
                 "peers table must cover the replica cluster");
}

SocketNetwork::~SocketNetwork() { stop(); }

/// True when local id `self` initiates the connection to `peer`: exactly
/// one side of each pair dials (higher replica id dials lower, so the
/// pair shares one TCP connection), and listen-less endpoints (clients)
/// dial every listener.
static bool is_dialer(const SocketNetworkConfig& cfg, ProcessId self,
                      ProcessId peer) {
  if (peer == self) return false;
  if (!cfg.peers[peer].listens()) return false;
  if (!cfg.peers[self].listens()) return true;
  return peer < self;
}

void SocketNetwork::attach(ProcessId id, ReceiveHandler handler) {
  FASTBFT_ASSERT(id < total_size(), "attach: id out of range");
  FASTBFT_ASSERT(!started_, "attach before start()");
  handlers_[id] = std::move(handler);
  if (!loops_[id]) {
    auto loop = std::make_unique<Loop>();
    loop->id = id;
    loop->links.reserve(total_size());
    for (ProcessId peer = 0; peer < total_size(); ++peer) {
      auto link = std::make_unique<Link>(config_.max_frame_bytes);
      link->dialer = is_dialer(config_, id, peer);
      link->policy = LinkPolicy(
          config_.link,
          (static_cast<std::uint64_t>(id) << 32) | (peer + 1));
      loop->links.push_back(std::move(link));
    }
    loops_[id] = std::move(loop);
  }
}

std::unique_ptr<SocketEndpoint> SocketNetwork::endpoint(ProcessId id) {
  FASTBFT_ASSERT(id < total_size(), "endpoint: id out of range");
  return std::make_unique<SocketEndpoint>(*this, id);
}

SocketNetwork::Loop* SocketNetwork::loop_of(ProcessId id) const {
  FASTBFT_ASSERT(id < loops_.size() && loops_[id],
                 "id is not a local endpoint");
  return loops_[id].get();
}

void SocketNetwork::start() {
  FASTBFT_ASSERT(!started_, "already started");
  started_ = true;
  for (auto& loop_ptr : loops_) {
    if (!loop_ptr) continue;
    Loop& loop = *loop_ptr;
    loop.epoll_fd = ::epoll_create1(0);
    FASTBFT_ASSERT(loop.epoll_fd >= 0, "epoll_create1 failed");
    loop.wake_fd = ::eventfd(0, EFD_NONBLOCK);
    FASTBFT_ASSERT(loop.wake_fd >= 0, "eventfd failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = make_tag(kTagWake, 0, 0);
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.wake_fd, &ev);

    const SocketPeer& self_addr = config_.peers[loop.id];
    if (self_addr.listens()) {
      if (self_addr.adopted_listen_fd >= 0) {
        loop.listen_fd = self_addr.adopted_listen_fd;
      } else {
        loop.listen_fd = make_tcp_socket();
        FASTBFT_ASSERT(loop.listen_fd >= 0, "listen socket failed");
        int one = 1;
        ::setsockopt(loop.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr;
        FASTBFT_ASSERT(make_addr(self_addr.host, self_addr.port, addr),
                       "bad listen address");
        FASTBFT_ASSERT(::bind(loop.listen_fd,
                              reinterpret_cast<sockaddr*>(&addr),
                              sizeof(addr)) == 0,
                       "bind failed");
        FASTBFT_ASSERT(::listen(loop.listen_fd, 128) == 0, "listen failed");
      }
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.u64 = make_tag(kTagListen, 0, 0);
      ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.listen_fd, &lev);
    }
  }
  for (auto& loop_ptr : loops_) {
    if (!loop_ptr) continue;
    threads_.emplace_back([this, loop = loop_ptr.get()] { run_loop(*loop); });
  }
}

void SocketNetwork::stop() {
  if (stopped_.load()) return;
  if (!started_) {
    for (const auto& loop : loops_) {
      if (loop && config_.peers[loop->id].adopted_listen_fd >= 0) {
        ::close(config_.peers[loop->id].adopted_listen_fd);
      }
    }
    stopped_.store(true);
    return;
  }
  stopping_.store(true);
  for (auto& loop_ptr : loops_) {
    if (loop_ptr) wake(*loop_ptr);
  }
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  for (auto& loop_ptr : loops_) {
    if (!loop_ptr) continue;
    Loop& loop = *loop_ptr;
    // The loop thread is joined: ownership of loop state returns to the
    // thread tearing the network down.
    loop.guard.unbind();
    for (auto& link : loop.links) {
      if (link->fd >= 0) ::close(link->fd);
      link->fd = -1;
    }
    for (auto& p : loop.pendings) {
      if (p && p->fd >= 0) ::close(p->fd);
    }
    loop.pendings.clear();
    if (loop.listen_fd >= 0) ::close(loop.listen_fd);
    loop.listen_fd = -1;
    if (loop.wake_fd >= 0) ::close(loop.wake_fd);
    loop.wake_fd = -1;
    if (loop.epoll_fd >= 0) ::close(loop.epoll_fd);
    loop.epoll_fd = -1;
    loop.timers.clear();
  }
  stopped_.store(true);
}

TimePoint SocketNetwork::now_ticks() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

void SocketNetwork::wake(Loop& loop) {
  if (loop.wake_fd < 0) return;
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(loop.wake_fd, &one, sizeof(one));
}

void SocketNetwork::post(ProcessId id, std::function<void()> fn) {
  Loop* loop = loop_of(id);
  {
    std::lock_guard<std::mutex> lk(loop->task_mutex);
    loop->tasks.push_back(std::move(fn));
    loop->has_tasks.store(true, std::memory_order_release);
  }
  wake(*loop);
}

void SocketNetwork::send(ProcessId from, ProcessId to, SharedBytes payload) {
  FASTBFT_ASSERT(from < total_size() && to < total_size(),
                 "send: id out of range");
  if (to < loops_.size() && loops_[to]) {
    // Both endpoints live in this process: deliver through the target
    // loop's task queue — no socket, no copy, and the same deferred
    // (non-reentrant) semantics as any other delivery.
    post(to, [this, from, to, payload = std::move(payload)] {
      if (!handlers_[to]) return;
      delivered_.fetch_add(1, std::memory_order_relaxed);
      handlers_[to](from, payload);
    });
    return;
  }
  Loop* loop = loop_of(from);
  if (std::this_thread::get_id() == loop->owner.load()) {
    send_on_loop(*loop, to, std::move(payload));
  } else {
    post(from, [this, loop, to, payload = std::move(payload)]() mutable {
      send_on_loop(*loop, to, std::move(payload));
    });
  }
}

void SocketNetwork::send_on_loop(Loop& loop, ProcessId to,
                                 SharedBytes payload) {
  loop.guard.check("send_on_loop: loop state is loop-thread-only");
  Link& link = *loop.links[to];
  enqueue_frame(link, std::move(payload), /*heartbeat=*/false);
}

void SocketNetwork::enqueue_frame(Link& link, SharedBytes payload,
                                  bool heartbeat) {
  if (payload.size() > config_.max_frame_bytes ||
      link.sendq.size() >= config_.max_queued_frames) {
    link.stats.bump(link.stats.frames_dropped);
    return;
  }
  SendEntry entry;
  encode_frame_header(static_cast<std::uint32_t>(payload.size()),
                      entry.header);
  entry.payload = std::move(payload);
  if (config_.tx_delay_us > 0) {
    entry.ready_at = now_ticks() + config_.tx_delay_us;
  }
  link.sendq.push_back(std::move(entry));
  link.stats.high_water(link.sendq.size());
  if (heartbeat) link.stats.bump(link.stats.heartbeats_out);
}

// --- Timers (same-thread contract) -------------------------------------------

void SocketNetwork::assert_timer_owner(const Loop& loop) const {
  // Guard is unbound before run_loop starts and after stop() joins, so
  // setup/teardown-thread arms stay legal.
  loop.guard.check(
      "timers must be armed/cancelled on the owning loop thread");
}

SocketNetwork::TimerKey SocketNetwork::arm_timer(ProcessId id,
                                                 TimePoint at_ticks,
                                                 std::function<void()> fn) {
  Loop* loop = loop_of(id);
  assert_timer_owner(*loop);
  TimerKey key{at_ticks, loop->next_timer_seq++};
  loop->timers.emplace(key, std::move(fn));
  return key;
}

void SocketNetwork::cancel_timer(ProcessId id, TimerKey key) {
  Loop* loop = loop_of(id);
  assert_timer_owner(*loop);
  loop->timers.erase(key);
}

// --- Readiness loop ----------------------------------------------------------

void SocketNetwork::run_loop(Loop& loop) {
  loop.owner.store(std::this_thread::get_id());
  loop.guard.bind();
  // Wake on time: the default 50 us timer slack would delay every held
  // tx_delay frame and sub-millisecond timer by up to that much.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  while (!stopping_.load(std::memory_order_acquire)) {
    loop_round(loop);
  }
}

TimePoint SocketNetwork::next_deadline(Loop& loop, TimePoint now) const {
  TimePoint dl = now + 100'000;  // 100 ms cap: nothing sleeps longer
  if (!loop.timers.empty()) {
    dl = std::min(dl, loop.timers.begin()->first.first);
  }
  const Duration hs_timeout = config_.link.heartbeat_timeout_us;
  for (ProcessId peer = 0; peer < loop.links.size(); ++peer) {
    const Link& link = *loop.links[peer];
    switch (link.state) {
      case LinkState::Idle:
        if (link.dialer) dl = std::min(dl, link.policy.retry_at());
        break;
      case LinkState::Connecting:
        dl = std::min(dl, link.connect_started + hs_timeout);
        break;
      case LinkState::Ready:
        dl = std::min(dl, link.policy.next_established_deadline());
        // Held tx_delay frames must wake the loop when they come due —
        // the end-of-round flush won't run again until epoll returns.
        if (config_.tx_delay_us > 0 && !link.sendq.empty() &&
            !link.want_writable) {
          dl = std::min(dl, link.sendq.front().ready_at);
        }
        break;
    }
  }
  for (const auto& p : loop.pendings) {
    if (p && p->fd >= 0) dl = std::min(dl, p->accepted_at + hs_timeout);
  }
  return std::max(dl, now);
}

void SocketNetwork::drain_tasks(Loop& loop) {
  if (!loop.has_tasks.load(std::memory_order_acquire)) return;
  std::deque<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lk(loop.task_mutex);
    tasks.swap(loop.tasks);
    loop.has_tasks.store(false, std::memory_order_relaxed);
  }
  for (auto& fn : tasks) fn();
}

/// epoll wait with microsecond precision: held tx_delay frames and
/// sub-millisecond timers must not round up to a whole millisecond.
/// Kernels without epoll_pwait2 (ENOSYS) get epoll_wait, rounded up.
static int wait_events(int epoll_fd, epoll_event* events, int max_events,
                       Duration timeout_us) {
  static std::atomic<bool> have_pwait2{true};
  if (have_pwait2.load(std::memory_order_relaxed)) {
    const timespec ts{static_cast<time_t>(timeout_us / 1'000'000),
                      static_cast<long>(timeout_us % 1'000'000) * 1000};
    const int nev = ::epoll_pwait2(epoll_fd, events, max_events, &ts, nullptr);
    if (nev >= 0 || errno != ENOSYS) return nev;
    have_pwait2.store(false, std::memory_order_relaxed);
  }
  return ::epoll_wait(epoll_fd, events, max_events,
                      static_cast<int>((timeout_us + 999) / 1000));
}

void SocketNetwork::loop_round(Loop& loop) {
  TimePoint now = now_ticks();
  // next_deadline caps the wait at 100 ms.
  const Duration timeout_us = next_deadline(loop, now) - now;

  epoll_event events[64];
  const int nev = wait_events(loop.epoll_fd, events, 64, timeout_us);

  drain_tasks(loop);

  for (int i = 0; i < nev; ++i) {
    const std::uint64_t tag = events[i].data.u64;
    const std::uint64_t kind = tag >> 48;
    const std::uint16_t gen = static_cast<std::uint16_t>(tag >> 32);
    const std::uint32_t index = static_cast<std::uint32_t>(tag);
    switch (kind) {
      case kTagWake: {
        std::uint64_t count;
        while (::read(loop.wake_fd, &count, sizeof(count)) > 0) {
        }
        // Tasks posted since the last drain run at the next drain point
        // (after the next delivery, timer, or round start); the eventfd
        // stays signalled until then, so nothing is lost.
        break;
      }
      case kTagListen:
        accept_ready(loop);
        break;
      case kTagLink: {
        Link& link = *loop.links[index];
        if (link.gen != gen || link.fd < 0) break;  // stale event
        if (link.state == LinkState::Connecting) {
          // Any readiness on a connecting fd resolves the attempt.
          on_connect_writable(loop, link, index);
          break;
        }
        // Drain readable bytes BEFORE acting on ERR/HUP so a peer's last
        // frames ahead of a close are still delivered.
        if ((events[i].events & EPOLLIN) != 0) {
          link_readable(loop, link, index);
        }
        if (link.gen != gen || link.fd < 0) break;  // went down while reading
        if ((events[i].events & EPOLLOUT) != 0) {
          link.want_writable = false;
          update_epoll(loop, link, index);
          flush_link(loop, link, index);
        }
        if (link.gen != gen || link.fd < 0) break;
        if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
          link_down(link);
        }
        break;
      }
      case kTagPending: {
        if (index >= loop.pendings.size() || !loop.pendings[index] ||
            loop.pendings[index]->fd < 0 ||
            loop.pendings[index]->gen != gen) {
          break;  // stale event
        }
        if (events[i].events & (EPOLLERR | EPOLLHUP)) {
          drop_pending(loop, index);
        } else {
          pending_readable(loop, index);
        }
        break;
      }
    }
  }

  now = now_ticks();
  while (!loop.timers.empty() && loop.timers.begin()->first.first <= now) {
    auto node = loop.timers.extract(loop.timers.begin());
    timers_fired_.fetch_add(1, std::memory_order_relaxed);
    node.mapped()();
    drain_tasks(loop);  // same FIFO contract as parse_frames
  }

  service_links(loop, now);

  // Write coalescing: everything the tasks, deliveries and timers above
  // queued this round goes out in as few writev calls as possible.
  for (ProcessId peer = 0; peer < loop.links.size(); ++peer) {
    Link& link = *loop.links[peer];
    if (link.state == LinkState::Ready && !link.sendq.empty() &&
        !link.want_writable) {
      flush_link(loop, link, peer);
    }
  }
}

void SocketNetwork::service_links(Loop& loop, TimePoint now) {
  const Duration hs_timeout = config_.link.heartbeat_timeout_us;
  for (ProcessId peer = 0; peer < loop.links.size(); ++peer) {
    Link& link = *loop.links[peer];
    switch (link.state) {
      case LinkState::Idle:
        if (link.dialer && !stopping_.load() && link.policy.retry_due(now)) {
          start_connect(loop, link, peer, now);
        }
        break;
      case LinkState::Connecting:
        if (now - link.connect_started >= hs_timeout) {
          link_down(link);
        }
        break;
      case LinkState::Ready:
        if (link.policy.rx_expired(now)) {
          link.stats.bump(link.stats.peer_downs);
          link_down(link);
        } else if (link.policy.heartbeat_due(now)) {
          enqueue_frame(link, SharedBytes(), /*heartbeat=*/true);
          link.policy.on_tx(now);
        }
        break;
    }
  }
  for (std::size_t slot = 0; slot < loop.pendings.size(); ++slot) {
    auto& p = loop.pendings[slot];
    if (p && p->fd >= 0 && now - p->accepted_at >= hs_timeout) {
      drop_pending(loop, slot);
    }
  }
}

// --- Outbound connections ----------------------------------------------------

void SocketNetwork::start_connect(Loop& loop, Link& link, ProcessId peer,
                                  TimePoint now) {
  const SocketPeer& addr = config_.peers[peer];
  sockaddr_in sa;
  if (!make_addr(addr.host, addr.port, sa)) {
    link.policy.on_connect_failed(now);
    return;
  }
  int fd = make_tcp_socket();
  if (fd < 0) {
    link.policy.on_connect_failed(now);
    return;
  }
  link.stats.bump(link.stats.connects_attempted);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc == 0) {
    link.fd = fd;
    ++link.gen;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = make_tag(kTagLink, link.gen, peer);
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    established(loop, link, peer);
    return;
  }
  if (errno == EINPROGRESS) {
    link.fd = fd;
    link.state = LinkState::Connecting;
    link.connect_started = now;
    ++link.gen;
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.u64 = make_tag(kTagLink, link.gen, peer);
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    return;
  }
  ::close(fd);
  link.policy.on_connect_failed(now);
}

void SocketNetwork::on_connect_writable(Loop& loop, Link& link,
                                        ProcessId peer) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(link.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
      err != 0) {
    link_down(link);
    return;
  }
  link.state = LinkState::Ready;  // established() fills in the rest
  established(loop, link, peer);
}

void SocketNetwork::established(Loop& loop, Link& link, ProcessId peer) {
  const TimePoint now = now_ticks();
  link.state = LinkState::Ready;
  link.want_writable = false;
  link.policy.on_established(now);
  if (link.ever_established) {
    link.stats.bump(link.stats.reconnects);
  }
  link.ever_established = true;
  link.stats.bump(link.stats.connects_established);
  if (link.dialer) {
    // First frame on the wire must identify us; the acceptor cannot bind
    // this connection to a link until it arrives.
    link.peer_identified = false;
    SendEntry hello;
    Handshake hs{loop.id, config_.cluster_size};
    Bytes encoded = hs.encode();
    encode_frame_header(static_cast<std::uint32_t>(encoded.size()),
                        hello.header);
    hello.payload = SharedBytes(std::move(encoded));
    link.sendq.push_front(std::move(hello));
  }
  update_epoll(loop, link, peer);
  flush_link(loop, link, peer);
}

void SocketNetwork::link_down(Link& link) {
  if (link.fd >= 0) {
    ::close(link.fd);
    link.fd = -1;
  }
  ++link.gen;
  link.state = LinkState::Idle;
  link.peer_identified = false;
  link.want_writable = false;
  link.reader = FrameReader(config_.max_frame_bytes);
  // Queued frames are kept (bounded): they flush after reconnection.
  // Drop any partially written frame — the peer's reader lost sync
  // context anyway when the connection died.
  if (!link.sendq.empty() && link.sendq.front().offset > 0) {
    link.sendq.pop_front();
  }
  if (link.dialer) {
    link.policy.on_connect_failed(now_ticks());
  }
}

// --- Accept path -------------------------------------------------------------

void SocketNetwork::accept_ready(Loop& loop) {
  for (;;) {
    int fd = ::accept4(loop.listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN or transient error: epoll will re-arm
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    // Identify ourselves immediately; a fresh socket buffer always has
    // room for the 18-byte hello, so a short write means a broken peer.
    Handshake hs{loop.id, config_.cluster_size};
    const Bytes body = hs.encode();
    FrameHeader hdr;
    encode_frame_header(static_cast<std::uint32_t>(body.size()), hdr);
    Bytes wire(hdr.begin(), hdr.end());
    wire.insert(wire.end(), body.begin(), body.end());
    if (::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(wire.size())) {
      ::close(fd);
      continue;
    }

    std::size_t slot = 0;
    while (slot < loop.pendings.size() && loop.pendings[slot] &&
           loop.pendings[slot]->fd >= 0) {
      ++slot;
    }
    if (slot == loop.pendings.size()) {
      loop.pendings.push_back(
          std::make_unique<PendingAccept>(config_.max_frame_bytes));
    } else if (!loop.pendings[slot]) {
      loop.pendings[slot] =
          std::make_unique<PendingAccept>(config_.max_frame_bytes);
    }
    PendingAccept& p = *loop.pendings[slot];
    p.fd = fd;
    ++p.gen;
    p.reader = FrameReader(config_.max_frame_bytes);
    p.accepted_at = now_ticks();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 =
        make_tag(kTagPending, p.gen, static_cast<std::uint32_t>(slot));
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  }
}

void SocketNetwork::drop_pending(Loop& loop, std::size_t slot) {
  PendingAccept& p = *loop.pendings[slot];
  if (p.fd >= 0) ::close(p.fd);
  p.fd = -1;
  ++p.gen;
}

void SocketNetwork::pending_readable(Loop& loop, std::size_t slot) {
  PendingAccept& p = *loop.pendings[slot];
  for (;;) {
    std::uint8_t* dst = p.reader.prepare(512);
    const ssize_t r = ::recv(p.fd, dst, 512, 0);
    if (r > 0) {
      p.reader.commit(r);
      if (static_cast<std::size_t>(r) < 512) break;
      continue;
    }
    p.reader.commit(0);
    if (r == 0 || errno != EAGAIN) {
      drop_pending(loop, slot);
      return;
    }
    break;
  }
  auto frame = p.reader.next();
  if (p.reader.error()) {
    loop.stats.bump(loop.stats.handshake_rejects);
    drop_pending(loop, slot);
    return;
  }
  if (!frame) return;  // handshake not complete yet
  Handshake hs;
  const auto result = Handshake::decode(*frame, hs);
  if (result != Handshake::Result::Ok || hs.sender >= total_size() ||
      hs.sender == loop.id) {
    loop.stats.bump(loop.stats.handshake_rejects);
    drop_pending(loop, slot);
    return;
  }
  adopt_pending(loop, slot, hs);
}

void SocketNetwork::adopt_pending(Loop& loop, std::size_t slot,
                                  const Handshake& hs) {
  PendingAccept& p = *loop.pendings[slot];
  Link& link = *loop.links[hs.sender];
  if (link.fd >= 0) {
    // The peer reconnected before we noticed the old connection die (or
    // a rule-breaking double dial): newest wins.
    ::close(link.fd);
    link.fd = -1;
  }
  link.fd = p.fd;
  ++link.gen;
  // Transplant the reader: data frames may already sit behind the
  // handshake in the buffer.
  link.reader = std::move(p.reader);
  p.fd = -1;
  ++p.gen;
  p.reader = FrameReader(config_.max_frame_bytes);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = make_tag(kTagLink, link.gen, hs.sender);
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, link.fd, &ev);

  established(loop, link, hs.sender);
  link.peer_identified = true;
  if (parse_frames(loop, link, hs.sender)) {
    if (link.state == LinkState::Ready && !link.sendq.empty() &&
        !link.want_writable) {
      flush_link(loop, link, hs.sender);
    }
  }
}

// --- Established I/O ---------------------------------------------------------

void SocketNetwork::link_readable(Loop& loop, Link& link, ProcessId peer) {
  const std::size_t chunk = config_.read_chunk_bytes;
  bool down = false;
  for (;;) {
    std::uint8_t* dst = link.reader.prepare(chunk);
    const ssize_t r = ::recv(link.fd, dst, chunk, 0);
    if (r > 0) {
      link.reader.commit(r);
      link.stats.bump(link.stats.bytes_in, static_cast<std::uint64_t>(r));
      if (static_cast<std::size_t>(r) < chunk) break;
      continue;
    }
    link.reader.commit(0);
    if (r == 0 || errno != EAGAIN) down = true;
    break;
  }
  if (!parse_frames(loop, link, peer)) return;  // link went down in parse
  if (down) link_down(link);
}

bool SocketNetwork::parse_frames(Loop& loop, Link& link, ProcessId peer) {
  const TimePoint now = now_ticks();
  while (auto frame = link.reader.next()) {
    link.policy.on_rx(now);
    if (!link.peer_identified) {
      Handshake hs;
      const auto result = Handshake::decode(*frame, hs);
      if (result != Handshake::Result::Ok || hs.sender != peer) {
        link.stats.bump(link.stats.handshake_rejects);
        link_down(link);
        return false;
      }
      link.peer_identified = true;
      continue;
    }
    if (frame->empty()) {
      link.stats.bump(link.stats.heartbeats_in);
      continue;
    }
    link.stats.bump(link.stats.frames_in);
    deliver(loop, link, peer, *frame);
    // FIFO contract: a task the handler just posted (e.g. SlotMux's
    // deferred apply) runs before the NEXT message is handled. Sockets
    // batch many frames per readiness round, so without this drain a
    // deferred window-advance systematically loses the race
    // against the next slot's proposal sitting right behind it in the
    // read buffer — and the engine drops that proposal as beyond-window,
    // stalling the slot until its view-change timeout.
    drain_tasks(loop);
    if (link.fd < 0) return false;  // handler-triggered teardown
  }
  if (link.reader.error()) {
    link.stats.bump(link.stats.decode_errors);
    link_down(link);
    return false;
  }
  return true;
}

void SocketNetwork::deliver(Loop& loop, Link& link, ProcessId from,
                            ByteView frame) {
  loop.guard.check("deliver: handlers run on the owning loop thread only");
  if (!handlers_[loop.id]) return;
  // ReceiveHandler takes `const Bytes&`, so inbound frames cost exactly
  // one copy — into this connection's recycled delivery buffer, which is
  // alloc-free once its capacity has warmed up.
  if (frame.size() > link.delivery_buf.capacity()) {
    link.stats.bump(link.stats.delivery_allocs);
  } else {
    link.stats.bump(link.stats.delivery_reuses);
  }
  link.delivery_buf.assign(frame.begin(), frame.end());
  delivered_.fetch_add(1, std::memory_order_relaxed);
  handlers_[loop.id](from, link.delivery_buf);
}

void SocketNetwork::update_epoll(Loop& loop, Link& link, ProcessId peer) {
  if (link.fd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (link.want_writable ? EPOLLOUT : 0u);
  ev.data.u64 = make_tag(kTagLink, link.gen, peer);
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, link.fd, &ev);
}

void SocketNetwork::flush_link(Loop& loop, Link& link, ProcessId peer) {
  // Under emulated link latency only frames past their ready_at may leave.
  // FIFO order is preserved: a not-yet-due frame blocks everything behind
  // it, and a partially written frame (offset > 0) is already on the wire
  // so it always completes.
  const TimePoint due_now = config_.tx_delay_us > 0 ? now_ticks() : 0;
  while (link.state == LinkState::Ready && link.fd >= 0 &&
         !link.sendq.empty()) {
    // Scatter-gather up to writev_batch_frames pending frames: one iovec
    // for each 4-byte header, one aliasing each SharedBytes payload — no
    // staging copies, syscalls amortized across everything queued.
    constexpr std::size_t kMaxIov = 128;
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    std::size_t nframes = 0;
    for (const SendEntry& entry : link.sendq) {
      if (nframes >= config_.writev_batch_frames || niov + 2 > kMaxIov) break;
      if (entry.offset == 0 && entry.ready_at > due_now) break;
      std::size_t off = entry.offset;
      if (off < kFrameHeaderBytes) {
        iov[niov].iov_base =
            const_cast<std::uint8_t*>(entry.header.data()) + off;
        iov[niov].iov_len = kFrameHeaderBytes - off;
        ++niov;
        off = 0;
      } else {
        off -= kFrameHeaderBytes;
      }
      if (entry.payload.size() > off) {
        iov[niov].iov_base =
            const_cast<std::uint8_t*>(entry.payload.get().data()) + off;
        iov[niov].iov_len = entry.payload.size() - off;
        ++niov;
      }
      ++nframes;
    }
    if (niov == 0) {
      // Fully written entries would have been popped; nothing sendable.
      break;
    }
    // writev with MSG_NOSIGNAL: a peer that closed must not SIGPIPE the
    // process (replicas sharing a process crash and restart separately).
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    const ssize_t written = ::sendmsg(link.fd, &msg, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!link.want_writable) {
          link.want_writable = true;
          update_epoll(loop, link, peer);
        }
        return;
      }
      link_down(link);
      return;
    }
    link.stats.bump(link.stats.writev_calls);
    link.stats.bump(link.stats.bytes_out,
                    static_cast<std::uint64_t>(written));
    link.policy.on_tx(now_ticks());
    std::size_t remaining = static_cast<std::size_t>(written);
    std::uint64_t completed = 0;
    while (remaining > 0 && !link.sendq.empty()) {
      SendEntry& entry = link.sendq.front();
      const std::size_t total =
          kFrameHeaderBytes + entry.payload.size() - entry.offset;
      if (remaining >= total) {
        remaining -= total;
        link.sendq.pop_front();
        ++completed;
      } else {
        entry.offset += remaining;
        remaining = 0;
      }
    }
    link.stats.bump(link.stats.frames_out, completed);
    link.stats.bump(link.stats.writev_frames, completed);
  }
}

// --- Stats -------------------------------------------------------------------

SocketCounters SocketNetwork::link_stats(ProcessId id, ProcessId peer) const {
  SocketCounters out;
  if (id < loops_.size() && loops_[id] && peer < loops_[id]->links.size()) {
    out = loops_[id]->links[peer]->stats.snapshot();
  }
  return out;
}

SocketCounters SocketNetwork::stats() const {
  SocketCounters out;
  for (const auto& loop : loops_) {
    if (!loop) continue;
    out.merge(loop->stats.snapshot());
    for (const auto& link : loop->links) {
      out.merge(link->stats.snapshot());
    }
  }
  return out;
}

std::string SocketNetwork::stats_summary() const {
  std::ostringstream out;
  for (const auto& loop : loops_) {
    if (!loop) continue;
    out << "endpoint " << loop->id << ":\n";
    for (ProcessId peer = 0; peer < loop->links.size(); ++peer) {
      const SocketCounters c = loop->links[peer]->stats.snapshot();
      if (c.connects_attempted == 0 && c.frames_in == 0 && c.frames_out == 0 &&
          c.connects_established == 0) {
        continue;
      }
      out << " link -> " << peer << ":\n" << c.summary("   ");
    }
    const SocketCounters lc = loop->stats.snapshot();
    if (lc.handshake_rejects > 0) {
      out << " loop: " << lc.handshake_rejects << " handshake rejects\n";
    }
  }
  out << "delivered: " << delivered_count()
      << " messages, timers fired: " << timers_fired() << "\n";
  return out.str();
}

}  // namespace fastbft::net
