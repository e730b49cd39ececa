#pragma once

#include <algorithm>
#include <memory>

#include "engine/host.hpp"
#include "net/socket_network.hpp"

/// \file socket_host.hpp
/// Wall-clock engine host over one net::SocketNetwork endpoint; ticks are
/// microseconds since the network's epoch. Timers and message handlers
/// both run on the endpoint's loop thread, so the engine keeps its
/// lock-free single-threaded discipline on real concurrency; the network
/// asserts the same-thread timer contract at arm/cancel time.

namespace fastbft::engine {

class SocketHost final : public Host {
 public:
  SocketHost(net::SocketNetwork& net, ProcessId id) : net_(net), id_(id) {}

  SocketHost(const SocketHost&) = delete;
  SocketHost& operator=(const SocketHost&) = delete;
  ~SocketHost() override { *alive_ = false; }

  TimePoint now() const override { return net_.now_ticks(); }

  sim::TimerHandle schedule_after(Duration delay,
                                  std::function<void()> fn) override {
    auto cancelled = std::make_shared<bool>(false);
    TimePoint at = net_.now_ticks() + std::max<Duration>(delay, 0);
    // The flag guard makes correctness independent of the eager erase; the
    // erase (below) is what keeps cancelled timers from pinning the
    // loop's timer map until their deadline.
    auto key = net_.arm_timer(id_, at, [cancelled, fn = std::move(fn)] {
      if (!*cancelled) fn();
    });
    return make_handle(cancelled,
                       [&net = net_, id = id_, key, alive = alive_] {
                         if (*alive) net.cancel_timer(id, key);
                       });
  }

  void post(std::function<void()> fn) override {
    net_.post(id_, std::move(fn));
  }

  bool affinity_ok() const override { return net_.affinity_ok(id_); }

 private:
  net::SocketNetwork& net_;
  ProcessId id_;
  /// Handles may outlive the host during cluster teardown; the flag keeps
  /// their eager-cancel hook from touching a dead network reference.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace fastbft::engine
