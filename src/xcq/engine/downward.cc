#include <cassert>
#include <span>
#include <vector>

#include "xcq/engine/axes.h"

namespace xcq::engine {

using xpath::Axis;

/// Reverse post-order form of the paper's Fig. 4 (docs/INTERNALS.md
/// §8.5).
///
/// The cached order lists every reachable child before each of its
/// parents, so walked back to front it is a topological order:
/// when w's turn comes, every reachable parent of w carries its final
/// `dst` bit and has *pushed* what each of its edges demands of its
/// child — src(p) ∨ inherit·dst(p) — into w's demand flags (an OR,
/// hence order-free). w folds its flags with or-self·src(w): one
/// demanded bit → take it and push onward; both → split, the original
/// keeping 0 and the clone (which pushes with bit 1) taking 1. Each
/// vertex is decided once and cloned at most once, so the instance at
/// most doubles.
///
/// Edges are re-pointed to the right variant in ONE deferred pass at
/// the end — every edge's demand is recomputable from its (by then
/// final) parent bit — which runs only if any split happened at all.
/// Nothing in between reads an edge's variant association: demands are
/// indexed by the original vertex id, which is exactly the cell where
/// both variants' demands must meet.
///
/// The per-occurrence selections this computes are precisely Fig. 4's:
/// each edge stands for a set of tree-node occurrences that share a
/// parent variant, hence share a demanded bit. Every reachable vertex
/// is decided.
Status ApplyDownwardAxis(Instance* instance, Axis axis, RelationId src,
                         RelationId dst, AxisStats* stats,
                         const CancelToken* cancel) {
  if (axis != Axis::kChild && axis != Axis::kDescendant &&
      axis != Axis::kDescendantOrSelf) {
    return Status::InvalidArgument("ApplyDownwardAxis: not a downward axis");
  }
  if (instance->root() == kNoVertex) {
    return Status::InvalidArgument("ApplyDownwardAxis: empty instance");
  }
  const bool inherit = axis != Axis::kChild;
  const bool or_self = axis == Axis::kDescendantOrSelf;

  // A reference into the traversal cache: the splits below invalidate
  // the cache for *later* readers, but no rebuild can happen while this
  // kernel runs (nothing here re-reads the cache), so the snapshot
  // stays intact.
  const TraversalCache& plan = instance->EnsureTraversal();
  const size_t n0 = instance->vertex_count();
  const DynamicBitset& src_bits = instance->RelationBits(src);

  // Demand flags per original vertex: bit 0 = some occurrence needs
  // dst=0, bit 1 = needs dst=1. Clones are born resolved and edges are
  // re-pointed only at the very end, so no clone ever receives flags.
  std::vector<uint8_t> demand(n0, 0);
  // dst bit per vertex, grown as clones are allocated; counterpart[w]
  // is w's bit-1 clone when w split.
  std::vector<uint8_t> dst_bit(n0, 0);
  std::vector<VertexId> counterpart(n0, kNoVertex);
  uint64_t split_count = 0;

  // Push a decided vertex's out-edge demands.
  const auto push_from = [&](VertexId v, bool bit) {
    const uint8_t out = src_bits.Test(v) || (inherit && bit) ? 2 : 1;
    for (const Edge& e : instance->Children(v)) demand[e.child] |= out;
  };

  const VertexId root = instance->root();
  uint64_t decided = 0;
  // Parents first; clones are allocated in this order.
  for (auto it = plan.order.rbegin(); it != plan.order.rend(); ++it) {
    const VertexId w = *it;
    // Checkpoint every 4096 decided vertices: clones allocated so far
    // are unreachable (edges re-point only in the deferred pass below)
    // and the dst column is untouched until the final bit pass, so an
    // abort here leaves the instance representing the same tree, at
    // worst with unreachable clone leftovers.
    if (cancel != nullptr && ++decided % 4096 == 0) {
      XCQ_RETURN_IF_ERROR(cancel->Check());
    }
    uint8_t d = demand[w];
    // Only the root receives no demands (every other reachable vertex
    // is entered by a reachable parent's edge).
    if (d == 0 && w == root) d = 1;
    if (or_self && src_bits.Test(w)) d = 2;  // every occurrence selected
    if (d == 3) {
      // The original keeps 0; the clone (same child list) takes 1.
      push_from(w, false);
      const VertexId clone = instance->CloneVertex(w);
      counterpart[w] = clone;
      dst_bit.push_back(1);  // dst_bit[clone]
      ++split_count;
      if (stats != nullptr) ++stats->splits;
      push_from(clone, true);
    } else {
      dst_bit[w] = d == 2 ? 1 : 0;
      push_from(w, dst_bit[w] != 0);
    }
  }

  // Last checkpoint before the commit phases (re-point + bit pass):
  // past this point the sweep runs to completion.
  if (cancel != nullptr) XCQ_RETURN_IF_ERROR(cancel->Check());

  // Deferred re-point pass, skipped when nothing split: every edge to a
  // split vertex goes to the variant its own demand selects. Edges are
  // committed in plan order, then clone order.
  if (split_count > 0) {
    const auto repoint = [&](VertexId v) {
      if (!src_bits.Test(v) && !(inherit && dst_bit[v] != 0)) return;
      const std::span<const Edge> children = instance->Children(v);
      for (uint32_t j = 0; j < children.size(); ++j) {
        const VertexId w = children[j].child;
        if (counterpart[w] == kNoVertex) continue;
        // A split child never has or-self·src(w) (that forces every
        // occurrence selected, i.e. no split), so the edge's variant
        // depends on the parent's demand alone.
        assert(!(or_self && src_bits.Test(w)));
        instance->MutableChildren(v)[j].child = counterpart[w];
      }
    };
    for (const VertexId v : plan.order) repoint(v);
    for (VertexId v = static_cast<VertexId>(n0);
         v < instance->vertex_count(); ++v) {
      repoint(v);
    }
  }

  for (const VertexId v : plan.order) {
    instance->AssignBit(dst, v, dst_bit[v] != 0);
  }
  for (VertexId v = static_cast<VertexId>(n0);
       v < instance->vertex_count(); ++v) {
    instance->AssignBit(dst, v, dst_bit[v] != 0);
  }
  if (stats != nullptr) {
    stats->visited += plan.order.size() + (instance->vertex_count() - n0);
  }
  return Status::OK();
}

}  // namespace xcq::engine
