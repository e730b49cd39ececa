#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

/// \file future.hpp
/// Minimal per-request future for the client API. A ClientSession hands
/// one Future<Reply> per request; the session completes it (exactly once)
/// when f + 1 replicas agreed on the execution result.
///
/// Two consumption styles, matching the two runtimes:
///  * callback — on_ready(fn) runs fn when the value lands (immediately if
///    it already has). Works identically on both hosts; fn runs on the
///    completing thread (the session's host thread).
///  * blocking — wait_for()/value() block the calling thread. Only
///    meaningful on the socket runtime; on the single-threaded simulator
///    nothing can complete a future while the driver blocks, so drive the
///    scheduler instead (Service::run_until) and then read value().

namespace fastbft::smr {

template <typename T>
class Promise;

template <typename T>
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }

  bool ready() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->value.has_value();
  }

  /// Blocks until ready or `timeout` elapsed; true iff ready.
  bool wait_for(std::chrono::milliseconds timeout) const {
    std::unique_lock<std::mutex> lock(state_->mutex);
    return state_->cv.wait_for(lock, timeout,
                               [&] { return state_->value.has_value(); });
  }

  /// The completed value. Asserts readiness via the standard library's
  /// optional access; call only after ready()/wait_for succeeded.
  const T& value() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->value.value();
  }

  /// Runs `fn` once the value lands — immediately (on this thread) if it
  /// already has, otherwise on the thread that completes the promise.
  void on_ready(std::function<void(const T&)> fn) {
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      if (!state_->value.has_value()) {
        state_->callbacks.push_back(std::move(fn));
        return;
      }
    }
    fn(*state_->value);
  }

 private:
  friend class Promise<T>;

  struct State {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::optional<T> value;
    std::vector<std::function<void(const T&)>> callbacks;
  };

  explicit Future(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<typename Future<T>::State>()) {}

  Future<T> future() const { return Future<T>(state_); }

  /// Completes the future; every subsequent set() is ignored (the first
  /// quorum wins — late reply quorums for the same request are identical
  /// by agreement anyway).
  void set(T value) {
    std::vector<std::function<void(const T&)>> callbacks;
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      if (state_->value.has_value()) return;
      state_->value = std::move(value);
      callbacks = std::move(state_->callbacks);
      state_->cv.notify_all();
    }
    for (auto& fn : callbacks) fn(*state_->value);
  }

  bool completed() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->value.has_value();
  }

 private:
  std::shared_ptr<typename Future<T>::State> state_;
};

}  // namespace fastbft::smr
