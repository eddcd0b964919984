#ifndef XCQ_UTIL_CANCEL_H_
#define XCQ_UTIL_CANCEL_H_

/// \file cancel.h
/// Cooperative cancellation for long-running work (docs/SERVER.md
/// §Deadlines).
///
/// A `CancelToken` carries two independent stop signals for one
/// request: an explicit cancellation flag (flipped by whoever owns the
/// request — e.g. the event loop when the client disconnects) and an
/// absolute deadline on the steady clock. Workers never block on the
/// token; they *poll* it at structurally safe checkpoints —
/// `Check()` returns OK, `kCancelled`, or `kDeadlineExceeded` — and
/// unwind with that status. The token itself does no unwinding: every
/// layer that polls is responsible for leaving its data structures
/// consistent before returning, which is why the engine never polls
/// inside a commit phase (it polls every 4096 vertices of a downward
/// sweep and at phase/round boundaries; see docs/SERVER.md §Deadlines).
///
/// Tokens are written from one thread (cancel) and read from many
/// (worker threads); all members are atomics with relaxed ordering —
/// cancellation is a latency hint, not a synchronization edge, and a
/// poll that misses a just-set flag simply catches it next checkpoint.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "xcq/util/status.h"

namespace xcq {

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation. Idempotent; safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arms (or re-arms) the absolute deadline. A zero time_point is
  /// treated as "no deadline".
  void SetDeadline(Clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }

  /// Arms the deadline `timeout` from now.
  void SetTimeout(std::chrono::nanoseconds timeout) {
    SetDeadline(Clock::now() + timeout);
  }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// True when a deadline is armed and has passed.
  bool expired() const {
    const int64_t ns = deadline_ns_.load(std::memory_order_relaxed);
    return ns != 0 && Clock::now().time_since_epoch().count() >= ns;
  }

  /// Test hook: trips the cancelled flag on the n-th future `Check()`
  /// call (n >= 1). Deterministic under single-threaded evaluation, so
  /// tests can land a cancellation inside any chosen phase without
  /// racing timers.
  void CancelAfterChecks(uint64_t n) {
    trip_after_.store(static_cast<int64_t>(n), std::memory_order_relaxed);
  }

  /// Number of `Check()` calls observed so far (test instrumentation:
  /// calibrates `CancelAfterChecks` against a clean run).
  uint64_t checks() const { return checks_.load(std::memory_order_relaxed); }

  /// The poll. OK while the request should keep running; otherwise the
  /// canonical `kCancelled` / `kDeadlineExceeded` error. Cheap enough
  /// to poll every few thousand vertices: one relaxed load in the common
  /// no-deadline case, plus one clock read when a deadline is armed.
  Status Check() const {
    checks_.fetch_add(1, std::memory_order_relaxed);
    const int64_t trip = trip_after_.load(std::memory_order_relaxed);
    if (trip > 0 &&
        trip_after_.fetch_sub(1, std::memory_order_relaxed) == 1) {
      cancelled_.store(true, std::memory_order_relaxed);
    }
    if (cancelled()) {
      return Status::Cancelled("request cancelled");
    }
    if (expired()) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    return Status::OK();
  }

 private:
  mutable std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{0};  ///< steady epoch ns; 0 = none
  mutable std::atomic<int64_t> trip_after_{0};
  mutable std::atomic<uint64_t> checks_{0};
};

}  // namespace xcq

#endif  // XCQ_UTIL_CANCEL_H_
