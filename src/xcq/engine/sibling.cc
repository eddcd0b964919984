#include <algorithm>
#include <cassert>
#include <vector>

#include "xcq/engine/axes.h"

namespace xcq::engine {

using xpath::Axis;

namespace {

/// Walks one child list and reports the `dst` bit each emitted run
/// requires of its child — the shared core of the demand and rewrite
/// passes. `emit(child, count, bit)` receives the runs of the rewritten
/// list in assembly order (left-to-right for following-sibling,
/// right-to-left for preceding).
template <typename Emit>
void WalkSiblingRuns(std::span<const Edge> runs, bool forward,
                     const DynamicBitset& src_bits, const Emit& emit) {
  bool seen = false;  // a source occurrence before (after) the cursor
  const auto emit_run = [&](VertexId w, uint64_t count, bool boundary_bit,
                            bool bulk_bit) {
    // `boundary_bit` selects the occurrence adjacent to `seen` history
    // (first for forward, last for backward); the remaining `count - 1`
    // occurrences follow (precede) a same-vertex occurrence.
    if (count == 1 || boundary_bit == bulk_bit) {
      emit(w, count, boundary_bit);
      return;
    }
    emit(w, 1, boundary_bit);
    emit(w, count - 1, bulk_bit);
  };
  if (forward) {
    for (const Edge& run : runs) {
      const bool in_src = src_bits.Test(run.child);
      emit_run(run.child, run.count, seen, seen || in_src);
      seen = seen || in_src;
    }
  } else {
    for (size_t i = runs.size(); i-- > 0;) {
      const Edge& run = runs[i];
      const bool in_src = src_bits.Test(run.child);
      emit_run(run.child, run.count, seen, seen || in_src);
      seen = seen || in_src;
    }
  }
}

/// Backward lists are assembled right-to-left: restore document order
/// and re-merge runs the reversal made adjacent, so a rewritten list is
/// canonical RLE like every other list.
void FinishBackwardList(std::vector<Edge>* rewritten) {
  std::reverse(rewritten->begin(), rewritten->end());
  std::vector<Edge> canonical;
  canonical.reserve(rewritten->size());
  for (const Edge& e : *rewritten) AppendEdgeRle(&canonical, e);
  rewritten->swap(canonical);
}

}  // namespace

/// following-sibling: an occurrence is selected iff an earlier occurrence
/// in the same (expanded) child list is in `src`; preceding-sibling is
/// the mirror image. A run `(w, c)` with `w` in `src` straddles the
/// boundary — its first (resp. last) occurrence may differ from the rest,
/// splitting the run in two (this is the multiplicity subtlety the paper
/// mentions under Prop. 3.4).
///
/// A sibling selection does not propagate into subtrees, so each child
/// list can be rewritten from `src` bits alone — the only coupling
/// between vertices is *which variants of each child exist*. Three
/// phases (docs/INTERNALS.md §8.5):
///  1. demand:  every list is walked; the bit each emitted run requires
///     of its child is OR-ed into the child's demand flags.
///  2. resolve: vertices demanded with both bits split, in plan order.
///     The original keeps the *lower* demanded bit, the clone the other
///     — a rule independent of discovery order.
///  3. rewrite: lists are walked again, now mapping each run to its
///     child's variant, and committed (SetEdges) in plan order. Skipped
///     when resolve cloned nothing: every run then maps to its own
///     child and is emitted whole, so each rewritten list equals the
///     original (RLE lists are canonical).
Status ApplySiblingAxis(Instance* instance, Axis axis, RelationId src,
                        RelationId dst, AxisStats* stats,
                        const CancelToken* cancel) {
  if (axis != Axis::kFollowingSibling && axis != Axis::kPrecedingSibling) {
    return Status::InvalidArgument("ApplySiblingAxis: not a sibling axis");
  }
  if (instance->root() == kNoVertex) {
    return Status::InvalidArgument("ApplySiblingAxis: empty instance");
  }
  const bool forward = axis == Axis::kFollowingSibling;
  // Cache reference; safe across the mutations below for the same
  // reason as in downward.cc (no mid-sweep cache re-read).
  const TraversalCache& plan = instance->EnsureTraversal();
  const size_t n0 = instance->vertex_count();
  const DynamicBitset& src_bits = instance->RelationBits(src);

  // Demand phase. Bit 0: some occurrence needs dst=0; bit 1: dst=1.
  std::vector<uint8_t> demand(n0, 0);
  for (const VertexId v : plan.order) {
    WalkSiblingRuns(instance->Children(v), forward, src_bits,
                    [&](VertexId w, uint64_t, bool bit) {
                      demand[w] |= bit ? 2 : 1;
                    });
  }
  demand[instance->root()] |= 1;

  // Checkpoint between demand and resolve: nothing has mutated
  // yet (demand writes only the side flags), so an abort here leaves
  // the instance untouched.
  if (cancel != nullptr) XCQ_RETURN_IF_ERROR(cancel->Check());

  // Resolve phase: allocate clones in plan order (deterministic).
  std::vector<uint8_t> dst_bit(n0, 0);
  std::vector<VertexId> counterpart(n0, kNoVertex);
  for (const VertexId v : plan.order) {
    dst_bit[v] = demand[v] == 2 ? 1 : 0;  // both demanded: original keeps 0
    if (demand[v] == 3) {
      counterpart[v] = instance->CloneVertex(v);
      if (stats != nullptr) ++stats->splits;
    }
  }
  const uint64_t split_count = instance->vertex_count() - n0;

  // Checkpoint between resolve and rewrite: the clones allocated
  // above are unreachable until the rewrite re-points parents at them,
  // so an abort here leaves only clone leftovers. Past this point the
  // sweep runs to completion.
  if (cancel != nullptr) XCQ_RETURN_IF_ERROR(cancel->Check());

  // Rewrite phase, in plan order. A clone shares its original's list,
  // differing only in the dst bit.
  if (split_count > 0) {
    std::vector<Edge> rewritten;
    for (const VertexId v : plan.order) {
      rewritten.clear();
      WalkSiblingRuns(instance->Children(v), forward, src_bits,
                      [&](VertexId w, uint64_t count, bool bit) {
                        const VertexId variant =
                            dst_bit[w] == (bit ? 1 : 0) ? w : counterpart[w];
                        assert(variant != kNoVertex);
                        AppendEdgeRle(&rewritten, Edge{variant, count});
                      });
      if (!forward) FinishBackwardList(&rewritten);
      instance->SetEdges(v, rewritten);
      if (counterpart[v] != kNoVertex) {
        instance->SetEdges(counterpart[v], rewritten);
      }
    }
  }
  for (const VertexId v : plan.order) {
    instance->AssignBit(dst, v, dst_bit[v] != 0);
    if (counterpart[v] != kNoVertex) {
      instance->AssignBit(dst, counterpart[v], true);
    }
  }
  if (stats != nullptr) stats->visited += plan.order.size() + split_count;
  return Status::OK();
}

}  // namespace xcq::engine
