#ifndef XCQ_ENGINE_GUARD_H_
#define XCQ_ENGINE_GUARD_H_

/// \file guard.h
/// Per-evaluation cancellation and work-budget guard
/// (docs/INTERNALS.md §10).
///
/// One `EvalGuard` is shared by every sweep of one plan evaluation. The
/// kernels call `Charge(visits, splits)` at their structural
/// checkpoints — downward band boundaries, sibling phase boundaries,
/// and once before each read-only upward pass — never from inner hot
/// loops. A sweep runs on one thread, so the accumulators are plain
/// integers. A charge that pushes an accumulator past its cap converts
/// a cost blow-up (the paper's Sec. 5 worst case: a split cascade that
/// balloons the DAG) into a clean `kResourceExhausted`; the token poll
/// folded into the same call surfaces `kCancelled` /
/// `kDeadlineExceeded`. Checkpoints sit *between* mutation phases, so
/// an aborted sweep leaves the instance representing the same tree it
/// did before the sweep started (splits are tree-invariant; see
/// axes.h).

#include <cstdint>

#include "xcq/util/cancel.h"
#include "xcq/util/status.h"

namespace xcq::engine {

class EvalGuard {
 public:
  /// Any argument may be null/zero: a null token skips polling, a zero
  /// cap is unlimited. A default-constructed guard charges for free.
  explicit EvalGuard(const CancelToken* cancel = nullptr,
                     uint64_t max_visits = 0, uint64_t max_splits = 0)
      : cancel_(cancel), max_visits_(max_visits), max_splits_(max_splits) {}

  /// Accumulates sweep work and polls the token. Called between
  /// mutation phases only.
  Status Charge(uint64_t visits, uint64_t splits) {
    visits_ += visits;
    splits_ += splits;
    if (max_visits_ != 0 && visits_ > max_visits_) {
      return Status::ResourceExhausted(
          "sweep visit budget exhausted (max_sweep_visits)");
    }
    if (max_splits_ != 0 && splits_ > max_splits_) {
      return Status::ResourceExhausted(
          "split growth budget exhausted (max_split_growth)");
    }
    return Poll();
  }

  /// Token poll alone (no work to account — e.g. op boundaries).
  Status Poll() const {
    return cancel_ != nullptr ? cancel_->Check() : Status::OK();
  }

  uint64_t visits() const { return visits_; }
  uint64_t splits() const { return splits_; }

 private:
  const CancelToken* cancel_ = nullptr;
  uint64_t max_visits_ = 0;
  uint64_t max_splits_ = 0;
  uint64_t visits_ = 0;
  uint64_t splits_ = 0;
};

}  // namespace xcq::engine

#endif  // XCQ_ENGINE_GUARD_H_
