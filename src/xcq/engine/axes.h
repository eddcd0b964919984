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

#include <cstddef>
#include <span>

#include "xcq/instance/instance.h"
#include "xcq/util/cancel.h"
#include "xcq/util/result.h"
#include "xcq/xpath/ast.h"

namespace xcq::engine {

/// \brief Counters exposed to the experiment harnesses.
struct AxisStats {
  /// Vertices the kernel decided, clones included: every reachable one,
  /// except in an upward or downward frontier walk.
  uint64_t visited = 0;
  uint64_t splits = 0;   ///< Vertices cloned (partial decompression).
};

/// \brief One lane of a sweep: plan `plan`'s op `op`, mapping selection
/// `src` into the zeroed column `dst`. A QUERY sweeps one lane, a shared
/// BATCH up to kMaskLanes per sweep; a lane's index is its bit in the
/// per-vertex lane masks the kernels compute.
struct SweepLane {
  size_t plan = 0;
  size_t op = 0;
  RelationId src = kNoRelation;
  RelationId dst = kNoRelation;
};

/// Lanes per sweep: one bit per lane in a one-byte mask.
inline constexpr size_t kMaskLanes = 8;

/// \brief What a kernel does where one lane demands both `dst` bits of a
/// vertex (a *clash*).
enum class OnClash : uint8_t {
  /// Split the vertex (Fig. 4): the original keeps 0, a clone takes 1.
  /// Only a one-lane sweep may split.
  kSplit,
  /// Return `Incompatible` with the instance and every `dst` untouched.
  kRefuse,
};

/// Each axis family has one single-threaded kernel (docs/INTERNALS.md
/// §8.5), generic over the lane count. Upward and downward axes are
/// keyed by post-order position and read the cache's parent index: from
/// a sparse source set they walk the frontier, upward through the
/// sources' parents, downward through the children of every vertex
/// that selects some lane, touching only what the walk reaches; past
/// the frontier budget (lane_mask.h) they pass over every position,
/// upward pushing children first, downward pulling parents first.
/// Sibling axes run demand/resolve/rewrite phases and decide every
/// reachable vertex. Every kernel carries its lanes' selections as
/// per-vertex one-byte masks.
///
/// An optional `cancel` token (util/cancel.h) is polled every 4096
/// decided positions and before the commit phases of a downward sweep,
/// at the phase boundaries of a sibling sweep, and once up front by an
/// upward sweep (which never mutates); a tripped token aborts the sweep
/// with `kCancelled` / `kDeadlineExceeded`. No checkpoint sits inside a
/// commit phase, so an aborted sweep leaves the instance structurally
/// consistent and representing the same tree (at worst with unreachable
/// clone leftovers) and every `dst` untouched.

/// \brief child / descendant / descendant-or-self — the Fig. 4 algorithm
/// as a parents-first pull over the parent index: a frontier walk down
/// from sparse sources, a pull at every post-order position from dense
/// ones. Splits (one lane only) allocate clones parents first.
Status SweepDownward(Instance* instance, xpath::Axis axis,
                     std::span<const SweepLane> lanes, OnClash on_clash,
                     AxisStats* stats = nullptr,
                     const CancelToken* cancel = nullptr);

/// \brief self / parent / ancestor / ancestor-or-self — a frontier walk up
/// from sparse sources, one children-first push over every post-order
/// position from dense ones; never splits, so never clashes.
Status SweepUpward(Instance* instance, xpath::Axis axis,
                   std::span<const SweepLane> lanes,
                   AxisStats* stats = nullptr,
                   const CancelToken* cancel = nullptr);

/// \brief following-sibling / preceding-sibling — one pass over child
/// lists, multiplicity-aware run splitting (demand/resolve/rewrite
/// phases).
Status SweepSibling(Instance* instance, xpath::Axis axis,
                    std::span<const SweepLane> lanes, OnClash on_clash,
                    AxisStats* stats = nullptr,
                    const CancelToken* cancel = nullptr);

}  // namespace xcq::engine

#endif  // XCQ_ENGINE_AXES_H_
