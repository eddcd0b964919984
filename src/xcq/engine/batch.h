#ifndef XCQ_ENGINE_BATCH_H_
#define XCQ_ENGINE_BATCH_H_

/// \file batch.h
/// The mask kernels of a shared BATCH sweep (docs/INTERNALS.md §8.3).
///
/// A BATCH of N short queries evaluated one at a time performs N
/// structural sweeps per axis depth even though every sweep walks the
/// same DAG. The plan interpreter (engine/evaluator.h,
/// `EvaluateBatchShared`) runs the plans in lockstep instead and hands
/// each round's same-axis ops to one of these kernels: one
/// traversal-cache read, one pass over the child arrays, the lanes'
/// selections carried as bit positions of per-vertex uint64 masks —
/// many queries' states through one traversal, as in Maneth & Sebastian
/// (PAPERS.md).
///
/// The kernels never mutate the DAG: where a per-query kernel would
/// split, they detect the *clash* (a vertex one lane demands both
/// selected and unselected) and return false before writing any `dst`
/// column. A conflict-free sweep's masks ARE the per-query answers.

#include <cstddef>
#include <span>

#include "xcq/engine/axes.h"

namespace xcq::engine {

/// Lanes per mask sweep: one selection bit per lane in a uint64.
inline constexpr size_t kMaskLanes = 64;

/// \brief parent / ancestor / ancestor-or-self for up to kMaskLanes
/// lanes in one children-first pass. Never splits (Prop. 3.3), so never
/// clashes.
void SharedUpward(Instance* instance, xpath::Axis axis,
                  std::span<const SweepLane> lanes);

/// \brief child / descendant / descendant-or-self: a root-first band
/// sweep accumulating per-lane demand masks. Returns false at the first
/// clash, with every `dst` untouched.
bool SharedDownward(Instance* instance, xpath::Axis axis,
                    std::span<const SweepLane> lanes);

/// \brief following-sibling / preceding-sibling: one demand pass over
/// every reachable child list. Returns false on a clash, with every
/// `dst` untouched.
bool SharedSibling(Instance* instance, xpath::Axis axis,
                   std::span<const SweepLane> lanes);

}  // namespace xcq::engine

#endif  // XCQ_ENGINE_BATCH_H_
