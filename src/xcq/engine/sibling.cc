#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "xcq/engine/axes.h"
#include "xcq/engine/lane_mask.h"

namespace xcq::engine {

using xpath::Axis;

namespace {

/// A vertex's demands: the lanes for which some occurrence of it must
/// be selected (`one`) and unselected (`zero`), packed into one 16-bit
/// word so a push is a single OR. Demands only grow by OR, so their
/// final value does not depend on the order of the pushes.
class Demand {
 public:
  void Push(LaneMask one, LaneMask zero) {
    word_ |= static_cast<uint16_t>(one | (zero << kMaskLanes));
  }
  LaneMask one() const { return static_cast<LaneMask>(word_); }
  LaneMask zero() const { return static_cast<LaneMask>(word_ >> kMaskLanes); }

 private:
  uint16_t word_ = 0;
};

/// Per-vertex mask of the lanes whose `src` selection contains v,
/// computed from each lane's set bits. Bits of unreachable split
/// leftovers land in the mask too; no phase reads them.
std::vector<LaneMask> SourceMasks(const Instance& instance,
                                  std::span<const SweepLane> lanes) {
  std::vector<LaneMask> src_mask(instance.vertex_count(), 0);
  for (size_t q = 0; q < lanes.size(); ++q) {
    const LaneMask bit = static_cast<LaneMask>(1u << q);
    instance.RelationBits(lanes[q].src).ForEach(
        [&](size_t v) { src_mask[v] |= bit; });
  }
  return src_mask;
}

/// Sets the `dst` bits of the vertices in `order` from their masks
/// (`mask_of(v)`), one pass per lane, so a QUERY's commit is a plain
/// loop over one column.
template <typename GetMask>
void CommitMasks(Instance* instance, std::span<const SweepLane> lanes,
                 const std::vector<VertexId>& order, const GetMask& mask_of) {
  for (size_t q = 0; q < lanes.size(); ++q) {
    DynamicBitset& dst = instance->MutableRelationBits(lanes[q].dst);
    for (const VertexId v : order) {
      if ((mask_of(v) >> q) & 1) dst.Set(v);
    }
  }
}

/// Walks one child list and reports the lanes whose `dst` each emitted
/// run requires of its child — the shared core of the demand and
/// rewrite phases. `emit(child, count, mask)` receives the runs of the
/// rewritten list in assembly order (left-to-right for following-sibling,
/// right-to-left for preceding).
template <typename Emit>
void WalkSiblingRuns(std::span<const Edge> runs, bool forward,
                     const std::vector<LaneMask>& src_mask,
                     const Emit& emit) {
  // Lanes with a source occurrence before (after) the cursor.
  LaneMask seen = 0;
  const auto emit_run = [&](const Edge& run) {
    // `seen` selects the occurrence adjacent to the history (first for
    // forward, last for backward); the remaining `count - 1`
    // occurrences follow (precede) a same-vertex occurrence, so their
    // history also holds the run's own source lanes.
    const LaneMask bulk =
        static_cast<LaneMask>(seen | src_mask[run.child]);
    if (run.count == 1 || seen == bulk) {
      emit(run.child, run.count, seen);
    } else {
      emit(run.child, 1, seen);
      emit(run.child, run.count - 1, bulk);
    }
    seen = bulk;
  };
  if (forward) {
    for (const Edge& run : runs) emit_run(run);
  } else {
    for (size_t i = runs.size(); i-- > 0;) emit_run(runs[i]);
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
///  1. demand:  every list is walked; the lanes each emitted run
///     requires selected / unselected are OR-ed into its child's
///     demands.
///  2. resolve: a vertex one lane demands with both bits is a clash.
///     Splitting (one lane only), clashing vertices are cloned in plan
///     order; the original keeps the *lower* demanded bit, the clone the
///     other — a rule independent of discovery order.
///  3. rewrite: lists are walked again, now mapping each run to its
///     child's variant, and committed (SetEdges) in plan order. Skipped
///     when resolve cloned nothing: every run then maps to its own
///     child and is emitted whole, so each rewritten list equals the
///     original (RLE lists are canonical).
Status Sibling(Instance* instance, Axis axis, std::span<const SweepLane> lanes,
               OnClash on_clash, AxisStats* stats,
               const CancelToken* cancel) {
  const bool forward = axis == Axis::kFollowingSibling;
  // Cache reference; safe across the mutations below for the same
  // reason as in downward.cc (no mid-sweep cache re-read).
  const TraversalCache& plan = instance->EnsureTraversal();
  const size_t n0 = instance->vertex_count();
  const LaneMask full = AllLanes(lanes.size());
  const std::vector<LaneMask> src_mask = SourceMasks(*instance, lanes);

  // Demand phase.
  std::vector<Demand> demand(n0);
  for (const VertexId v : plan.order) {
    WalkSiblingRuns(instance->Children(v), forward, src_mask,
                    [&](VertexId w, uint64_t, LaneMask mask) {
                      demand[w].Push(mask,
                                     static_cast<LaneMask>(full & ~mask));
                    });
  }
  demand[instance->root()].Push(0, full);

  // Checkpoint between demand and resolve: nothing has mutated
  // yet (demand writes only the side masks), so an abort here leaves
  // the instance untouched.
  if (cancel != nullptr) XCQ_RETURN_IF_ERROR(cancel->Check());

  // Resolve phase: allocate clones in plan order (deterministic).
  // counterpart is sized at the first split.
  std::vector<VertexId> counterpart;
  for (const VertexId v : plan.order) {
    if ((demand[v].one() & demand[v].zero()) == 0) continue;
    if (on_clash == OnClash::kRefuse) {
      return Status::Incompatible("sibling sweep clash: a split");
    }
    assert(lanes.size() == 1);
    if (counterpart.empty()) counterpart.assign(n0, kNoVertex);
    counterpart[v] = instance->CloneVertex(v);
    if (stats != nullptr) ++stats->splits;
  }
  const uint64_t split_count = instance->vertex_count() - n0;
  // An original's dst mask: its demanded lanes, except that where both
  // bits are demanded (a split) the original keeps 0.
  const auto dst_mask = [&](VertexId v) {
    return static_cast<LaneMask>(demand[v].one() & ~demand[v].zero());
  };

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
      WalkSiblingRuns(instance->Children(v), forward, src_mask,
                      [&](VertexId w, uint64_t count, LaneMask mask) {
                        const VertexId variant =
                            dst_mask(w) == mask ? w : counterpart[w];
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
  CommitMasks(instance, lanes, plan.order, dst_mask);
  CommitClones(instance, lanes, n0);
  if (stats != nullptr) stats->visited += plan.order.size() + split_count;
  return Status::OK();
}

}  // namespace

Status SweepSibling(Instance* instance, Axis axis,
                    std::span<const SweepLane> lanes, OnClash on_clash,
                    AxisStats* stats, const CancelToken* cancel) {
  XCQ_RETURN_IF_ERROR(CheckSweep(
      *instance,
      axis == Axis::kFollowingSibling || axis == Axis::kPrecedingSibling,
      lanes, on_clash, "SweepSibling"));
  return Sibling(instance, axis, lanes, on_clash, stats, cancel);
}

}  // namespace xcq::engine
