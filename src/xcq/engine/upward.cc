#include <vector>

#include "xcq/engine/axes.h"
#include "xcq/engine/lane_mask.h"

namespace xcq::engine {

using xpath::Axis;

namespace {

/// Upward axes never split (Prop. 3.3): whether some tree node below a
/// shared vertex is selected is a property of the vertex itself (the
/// whole point of bisimulation-based sharing is that the subtree below a
/// vertex is the same for all of its occurrences), so one children-first
/// pass over the cached post-order suffices (docs/INTERNALS.md §8.5):
/// per lane, v is a parent of a selected node iff one of its children
/// is in `src`, an ancestor iff one is in `src` or already an ancestor,
/// and an ancestor-or-self iff it is in `src` too. The pass only writes
/// reachable vertices, which keeps unreachable split leftovers silent.
template <typename Mask>
void Upward(Instance* instance, Axis axis, std::span<const SweepLane> lanes,
            const std::vector<VertexId>& order) {
  const bool ancestor = axis != Axis::kParent;
  // carry[v]: the lanes v hands to its parents — src(v), and for the
  // ancestor axes also up(v), so one load per edge covers both.
  std::vector<Mask> carry = SourceMasks<Mask>(*instance, lanes);
  std::vector<Mask> up_mask(instance->vertex_count(), 0);
  for (const VertexId v : order) {
    Mask m = 0;
    for (const Edge& e : instance->Children(v)) m |= carry[e.child];
    up_mask[v] = m;
    if (ancestor) carry[v] |= m;
  }
  // ancestor-or-self is exactly the carry.
  const std::vector<Mask>& dst_mask =
      axis == Axis::kAncestorOrSelf ? carry : up_mask;
  CommitMasks(instance, lanes, order, [&](VertexId v) { return dst_mask[v]; });
}

}  // namespace

Status SweepUpward(Instance* instance, Axis axis,
                   std::span<const SweepLane> lanes, AxisStats* stats,
                   const CancelToken* cancel) {
  XCQ_RETURN_IF_ERROR(CheckSweep(*instance, xpath::IsUpwardAxis(axis), lanes,
                                 OnClash::kRefuse, "SweepUpward"));
  if (axis == Axis::kSelf) {
    for (const SweepLane& lane : lanes) {  // a plain column copy
      instance->MutableRelationBits(lane.dst) =
          instance->RelationBits(lane.src);
    }
    return Status::OK();
  }
  // Upward sweeps only read the DAG and set bits of the zeroed dst
  // columns, so a single checkpoint up front suffices — an abort here
  // costs at most one flat pass of overshoot.
  const std::vector<VertexId>& order = instance->EnsureTraversal().order;
  if (cancel != nullptr) XCQ_RETURN_IF_ERROR(cancel->Check());
  if (lanes.size() <= kNarrowMaskLanes) {
    Upward<uint8_t>(instance, axis, lanes, order);
  } else {
    Upward<uint64_t>(instance, axis, lanes, order);
  }
  if (stats != nullptr) stats->visited += order.size();
  return Status::OK();
}

Status ApplyUpwardAxis(Instance* instance, Axis axis, RelationId src,
                       RelationId dst, AxisStats* stats,
                       const CancelToken* cancel) {
  const SweepLane lane{.src = src, .dst = dst};
  return SweepUpward(instance, axis, {&lane, 1}, stats, cancel);
}

}  // namespace xcq::engine
