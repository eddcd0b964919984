#include <bit>
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
/// pass suffices (docs/INTERNALS.md §8.5): per lane, v is a parent of a
/// selected node iff one of its children is in `src`, an ancestor iff one
/// is in `src` or already an ancestor, and an ancestor-or-self iff it is
/// in `src` too. Only reachable vertices are written, which keeps
/// unreachable split leftovers silent.
///
/// One upward sweep; returns the vertices it decided. Everything is
/// indexed by post-order position, ascending, so every child of a vertex
/// has pushed before the vertex is reached: each vertex ORs what it
/// carries (its `src` lanes, plus its ancestor lanes for the ancestor
/// axes) into its parents. Seeding puts every reachable source into
/// `carry` and sums their in-edges. Within the frontier budget
/// (lane_mask.h) it walks the frontier from them: a bitset over
/// positions, each walked vertex marking its parents, into the frontier
/// for the ancestor axes and into a bitset of its own for `parent`,
/// whose targets push nothing. Only marked vertices (and, for
/// ancestor-or-self, the sources) are committed. An ancestor walk also
/// adds the in-edges of every vertex it reaches from below. Once seeding
/// or the walk passes the budget, the sweep is dense: it pushes from
/// every position, from 0 or from where the walk stopped, without the
/// bitset.
uint64_t Upward(Instance* instance, Axis axis,
                std::span<const SweepLane> lanes, const TraversalCache& t) {
  const bool ancestor = axis != Axis::kParent;
  const size_t reachable = t.order.size();
  const uint64_t budget = FrontierBudget(t);
  std::vector<LaneMask> carry(reachable, 0);
  std::vector<LaneMask> up_mask(reachable, 0);
  // Raw views for the hot loops: a byte store may alias any vector's
  // members, which would reload them on every edge.
  const uint32_t* const offsets = t.parent_offsets.data();
  const uint32_t* const parents = t.parents.data();
  LaneMask* const carried = carry.data();
  LaneMask* const up = up_mask.data();
  uint64_t in_edges = 0;
  DynamicBitset frontier(reachable);
  SeedPositions(*instance, lanes, t, carried, [&](uint32_t p) {
    // Past the budget the sweep is dense and the frontier unused.
    if (in_edges <= budget) {
      in_edges += offsets[p + 1] - offsets[p];
      frontier.Set(p);
    }
  });

  DynamicBitset parents_only(ancestor ? 0 : reachable);
  DynamicBitset& marked = ancestor ? frontier : parents_only;
  const std::vector<uint64_t>& words = frontier.words();
  // Where the dense push starts; `reachable` while the sweep walks.
  size_t dense_from = in_edges > budget ? 0 : reachable;
  for (size_t w = 0; w < words.size() && dense_from == reachable; ++w) {
    // Marks only land above the vertex being walked, so re-reading the
    // word picks up those in it.
    uint64_t walked = 0;
    for (uint64_t left; (left = words[w] & ~walked) != 0;) {
      walked |= left & (~left + 1);
      const size_t p = w * 64 + static_cast<size_t>(std::countr_zero(left));
      if (ancestor) {
        if (carried[p] == 0 &&
            (in_edges += offsets[p + 1] - offsets[p]) > budget) {
          dense_from = p;
          break;
        }
        carried[p] |= up[p];
      }
      const LaneMask m = carried[p];
      for (uint32_t i = offsets[p], end = offsets[p + 1]; i < end; ++i) {
        up[parents[i]] |= m;
        marked.Set(parents[i]);
      }
    }
  }
  if (dense_from < reachable) {
    // Every position below is decided, so the push goes on from there:
    // a stopped walk keeps what it walked.
    for (size_t p = dense_from; p < reachable; ++p) {
      const LaneMask m = ancestor ? (carried[p] |= up[p]) : carried[p];
      if (m == 0) continue;
      for (uint32_t i = offsets[p], end = offsets[p + 1]; i < end; ++i) {
        up[parents[i]] |= m;
      }
    }
    marked.SetAll();
  }
  // ancestor-or-self is exactly the carry.
  const std::vector<LaneMask>& dst_mask =
      axis == Axis::kAncestorOrSelf ? carry : up_mask;
  CommitPositions(instance, lanes, t.order, marked, dst_mask.data());
  if (!ancestor) frontier |= parents_only;
  return frontier.Count();
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
  const TraversalCache& t = instance->EnsureParentIndex();
  if (cancel != nullptr) XCQ_RETURN_IF_ERROR(cancel->Check());
  const uint64_t visited = Upward(instance, axis, lanes, t);
  if (stats != nullptr) stats->visited += visited;
  return Status::OK();
}

}  // namespace xcq::engine
