#include <vector>

#include "xcq/engine/axes.h"

namespace xcq::engine {

using xpath::Axis;

/// Upward axes never split (Prop. 3.3): whether some tree node below a
/// shared vertex is selected is a property of the vertex itself (the
/// whole point of bisimulation-based sharing is that the subtree below a
/// vertex is the same for all of its occurrences), so one children-first
/// pass over the cached post-order suffices (docs/INTERNALS.md §8.5):
/// v is a parent of a selected node iff one of its children is in
/// `src`, an ancestor iff one is in `src` or already an ancestor. The
/// pass only writes reachable vertices, which keeps unreachable split
/// leftovers silent.
Status ApplyUpwardAxis(Instance* instance, Axis axis, RelationId src,
                       RelationId dst, AxisStats* stats,
                       const CancelToken* cancel) {
  if (!xpath::IsUpwardAxis(axis)) {
    return Status::InvalidArgument("ApplyUpwardAxis: not an upward axis");
  }
  if (instance->root() == kNoVertex) {
    return Status::InvalidArgument("ApplyUpwardAxis: empty instance");
  }
  const DynamicBitset& src_bits = instance->RelationBits(src);
  DynamicBitset& dst_bits = instance->MutableRelationBits(dst);
  if (axis == Axis::kSelf) {
    dst_bits = src_bits;  // a plain column copy
    return Status::OK();
  }
  const bool ancestor = axis != Axis::kParent;

  // Upward sweeps only read the DAG and set bits of the zeroed dst
  // column, so a single checkpoint up front suffices — an abort here
  // costs at most one flat pass of overshoot.
  const std::vector<VertexId>& order = instance->EnsureTraversal().order;
  if (cancel != nullptr) XCQ_RETURN_IF_ERROR(cancel->Check());

  for (const VertexId v : order) {
    for (const Edge& e : instance->Children(v)) {
      if (src_bits.Test(e.child) || (ancestor && dst_bits.Test(e.child))) {
        dst_bits.Set(v);
        break;
      }
    }
  }
  if (axis == Axis::kAncestorOrSelf) dst_bits |= src_bits;
  if (stats != nullptr) stats->visited += order.size();
  return Status::OK();
}

}  // namespace xcq::engine
