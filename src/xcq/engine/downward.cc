#include <cassert>
#include <span>
#include <vector>

#include "xcq/engine/axes.h"
#include "xcq/engine/lane_mask.h"

namespace xcq::engine {

using xpath::Axis;

namespace {

/// Reverse post-order form of the paper's Fig. 4 (docs/INTERNALS.md
/// §8.5), per lane.
///
/// The cached order lists every reachable child before each of its
/// parents, so walked back to front it is a topological order:
/// when w's turn comes, every reachable parent of w carries its final
/// `dst` mask and has *pushed* what each of its edges demands of its
/// child — src(p) ∨ inherit·dst(p) selected, the complement unselected
/// (ORs, hence order-free). w folds its demands with
/// or-self·src(w): a lane demanding one bit takes it and pushes onward;
/// a lane demanding both is a clash. Splitting it (one lane only), the
/// original keeps 0 and the clone (which pushes with 1) takes 1. Each
/// vertex is decided once and cloned at most once, so the instance at
/// most doubles.
///
/// Edges are re-pointed to the right variant in ONE deferred pass at
/// the end — every edge's demand is recomputable from its (by then
/// final) parent mask — which runs only if any split happened at all.
/// Nothing in between reads an edge's variant association: demands are
/// indexed by the original vertex id, which is exactly the cell where
/// both variants' demands must meet.
///
/// The per-occurrence selections this computes are precisely Fig. 4's:
/// each edge stands for a set of tree-node occurrences that share a
/// parent variant, hence share a demanded bit. Every reachable vertex
/// is decided.
Status Downward(Instance* instance, Axis axis,
                std::span<const SweepLane> lanes, OnClash on_clash,
                AxisStats* stats, const CancelToken* cancel) {
  const bool inherit = axis != Axis::kChild;
  const bool or_self = axis == Axis::kDescendantOrSelf;

  // A reference into the traversal cache: the splits below invalidate
  // the cache for *later* readers, but no rebuild can happen while this
  // kernel runs (nothing here re-reads the cache), so the snapshot
  // stays intact.
  const TraversalCache& plan = instance->EnsureTraversal();
  const size_t n0 = instance->vertex_count();
  const LaneMask full = AllLanes(lanes.size());
  // src and dst masks are grown as clones are allocated, so the
  // re-point pass reads them for clones too.
  std::vector<LaneMask> src_mask = SourceMasks(*instance, lanes);
  std::vector<LaneMask> dst_mask(n0, 0);

  // Demands per original vertex. Clones are born resolved and edges
  // are re-pointed only at the very end, so no clone ever receives
  // demands.
  std::vector<Demand> demand(n0);
  // counterpart[w] is w's bit-1 clone when w split; sized at the first
  // split.
  std::vector<VertexId> counterpart;

  // Push a decided vertex's out-edge demands.
  const auto push_from = [&](VertexId v, LaneMask mine) {
    const LaneMask out1 =
        static_cast<LaneMask>(src_mask[v] | (inherit ? mine : 0));
    const LaneMask out0 = static_cast<LaneMask>(full & ~out1);
    for (const Edge& e : instance->Children(v)) {
      demand[e.child].Push(out1, out0);
    }
  };

  const VertexId root = instance->root();
  uint64_t decided = 0;
  // Parents first; clones are allocated in this order.
  for (auto it = plan.order.rbegin(); it != plan.order.rend(); ++it) {
    const VertexId w = *it;
    // Checkpoint every 4096 decided vertices: clones allocated so far
    // are unreachable (edges re-point only in the deferred pass below)
    // and the dst columns are untouched until the final bit pass, so an
    // abort here leaves the instance representing the same tree, at
    // worst with unreachable clone leftovers.
    if (cancel != nullptr && ++decided % 4096 == 0) {
      XCQ_RETURN_IF_ERROR(cancel->Check());
    }
    // Only the root receives no demands (every other reachable vertex
    // is entered by a reachable parent's edge).
    const LaneMask d1 = demand[w].one();
    const LaneMask d0 = w == root ? full : demand[w].zero();
    const LaneMask os = or_self ? src_mask[w] : 0;  // all occurrences
    if ((d1 & d0 & ~os) == 0) {
      dst_mask[w] = static_cast<LaneMask>(os | d1);
      push_from(w, dst_mask[w]);
      continue;
    }
    if (on_clash == OnClash::kRefuse) {
      return Status::Incompatible("downward sweep clash: a split");
    }
    // One lane: the original keeps 0; the clone (same child list)
    // takes 1.
    assert(lanes.size() == 1);
    push_from(w, 0);
    if (counterpart.empty()) counterpart.assign(n0, kNoVertex);
    const VertexId clone = instance->CloneVertex(w);
    counterpart[w] = clone;
    src_mask.push_back(src_mask[w]);  // src_mask[clone]
    dst_mask.push_back(full);         // dst_mask[clone]
    if (stats != nullptr) ++stats->splits;
    push_from(clone, full);
  }

  // Last checkpoint before the commit phases (re-point + bit pass):
  // past this point the sweep runs to completion.
  if (cancel != nullptr) XCQ_RETURN_IF_ERROR(cancel->Check());

  // Deferred re-point pass, skipped when nothing split: every edge to a
  // split vertex goes to the variant its own demand selects. Edges are
  // committed in plan order, then clone order.
  if (!counterpart.empty()) {
    const auto repoint = [&](VertexId v) {
      if ((src_mask[v] | (inherit ? dst_mask[v] : 0)) == 0) return;
      const std::span<const Edge> children = instance->Children(v);
      for (uint32_t j = 0; j < children.size(); ++j) {
        const VertexId w = children[j].child;
        if (counterpart[w] == kNoVertex) continue;
        // A split child never has or-self·src(w) (that forces every
        // occurrence selected, i.e. no split), so the edge's variant
        // depends on the parent's demand alone.
        assert(!(or_self && src_mask[w] != 0));
        instance->MutableChildren(v)[j].child = counterpart[w];
      }
    };
    for (const VertexId v : plan.order) repoint(v);
    for (VertexId v = static_cast<VertexId>(n0);
         v < instance->vertex_count(); ++v) {
      repoint(v);
    }
  }

  CommitMasks(instance, lanes, plan.order,
              [&](VertexId v) { return dst_mask[v]; });
  CommitClones(instance, lanes, n0);
  if (stats != nullptr) {
    stats->visited += plan.order.size() + (instance->vertex_count() - n0);
  }
  return Status::OK();
}

}  // namespace

Status SweepDownward(Instance* instance, Axis axis,
                     std::span<const SweepLane> lanes, OnClash on_clash,
                     AxisStats* stats, const CancelToken* cancel) {
  XCQ_RETURN_IF_ERROR(CheckSweep(
      *instance,
      axis == Axis::kChild || axis == Axis::kDescendant ||
          axis == Axis::kDescendantOrSelf,
      lanes, on_clash, "SweepDownward"));
  return Downward(instance, axis, lanes, on_clash, stats, cancel);
}

}  // namespace xcq::engine
