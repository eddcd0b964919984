#ifndef XCQ_ENGINE_AXES_H_
#define XCQ_ENGINE_AXES_H_

/// \file axes.h
/// The per-axis operators on compressed instances (Sec. 3.2).
///
/// Each operator reads a source selection `src` and fills a destination
/// selection `dst` (an existing, zeroed relation of the instance).
/// Upward axes and set operations never change the DAG (Prop. 3.3);
/// downward and sibling axes may split vertices (partial decompression),
/// at most doubling the instance (Prop. 3.2 / Thm. 3.6). `following` and
/// `preceding` are compositions (Sec. 3.2) handled by the evaluator.

#include "xcq/engine/guard.h"
#include "xcq/instance/instance.h"
#include "xcq/util/result.h"
#include "xcq/xpath/ast.h"

namespace xcq::engine {

/// \brief Counters exposed to the experiment harnesses.
struct AxisStats {
  uint64_t visited = 0;  ///< Vertices visited by the traversal.
  uint64_t splits = 0;   ///< Vertices cloned (partial decompression).
};

/// \brief One lane of a sweep: plan `plan`'s op `op`, mapping selection
/// `src` into the zeroed column `dst`. A QUERY sweeps one lane through
/// the kernels below; a shared BATCH sweeps up to 64 through the mask
/// kernels of engine/batch.h, where a lane's index is its mask bit.
struct SweepLane {
  size_t plan = 0;
  size_t op = 0;
  RelationId src = kNoRelation;
  RelationId dst = kNoRelation;
};

/// Each axis family has one single-threaded kernel (docs/INTERNALS.md
/// §8.5): downward axes sweep root-first height bands, upward axes make
/// one children-first pass over the cached post-order, sibling axes run
/// demand/resolve/rewrite phases. Every kernel decides every reachable
/// vertex.
///
/// An optional `guard` (engine/guard.h) is charged with the sweep's
/// visit/split counts at band and phase boundaries (upward sweeps,
/// which never mutate, charge once up front) — never inside the inner
/// loops — and aborts the sweep with the guard's
/// status (`kCancelled` / `kDeadlineExceeded` / `kResourceExhausted`).
/// Every abort point sits between mutation phases, so an aborted sweep
/// leaves the instance structurally consistent and representing the
/// same tree (at worst with unreachable clone leftovers, exactly like
/// the shared-batch optimistic abort).

/// \brief child / descendant / descendant-or-self — the Fig. 4 algorithm
/// as a root-first height-band sweep.
Status ApplyDownwardAxis(Instance* instance, xpath::Axis axis,
                         RelationId src, RelationId dst,
                         AxisStats* stats = nullptr,
                         EvalGuard* guard = nullptr);

/// \brief self / parent / ancestor / ancestor-or-self — one children-first
/// pass over the post-order, never splits.
Status ApplyUpwardAxis(Instance* instance, xpath::Axis axis, RelationId src,
                       RelationId dst, AxisStats* stats = nullptr,
                       EvalGuard* guard = nullptr);

/// \brief following-sibling / preceding-sibling — one pass over child
/// lists, multiplicity-aware run splitting (demand/resolve/rewrite
/// phases).
Status ApplySiblingAxis(Instance* instance, xpath::Axis axis,
                        RelationId src, RelationId dst,
                        AxisStats* stats = nullptr,
                        EvalGuard* guard = nullptr);

}  // namespace xcq::engine

#endif  // XCQ_ENGINE_AXES_H_
