#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "xcq/engine/axes.h"
#include "xcq/engine/lane_mask.h"

namespace xcq::engine {

using xpath::Axis;

namespace {

/// What a decided position demands of every child its edges reach,
/// packed so a pull ORs one word per in-edge: the lanes its edges select
/// (`one`) in the low byte, the lanes they leave unselected (the
/// complement of `kept`) in the high byte. An undecided position, which
/// selects nothing, demands `Demands(0, 0, full)`.
uint16_t Demands(LaneMask one, LaneMask kept, LaneMask full) {
  return static_cast<uint16_t>(
      one | static_cast<LaneMask>(full & ~kept) << kMaskLanes);
}

/// The paper's Fig. 4 as a pull over the parent index (docs/INTERNALS.md
/// §8.5), per lane.
///
/// Everything is indexed by post-order position, and positions are
/// decided in descending order, parents first, so when position p is
/// decided every parent's mask is final. p pulls what each in-edge
/// demands: from a parent at pp, `src(pp) ∨ inherit·hi(pp)` selected and
/// the complement of `src(pp) ∨ inherit·lo(pp)` unselected, where
/// `lo = hi = dst` for a parent that did not split and `lo = 0`,
/// `hi = full` for one that did (its original keeps 0, its clone takes
/// 1). p folds the pulled demands with or-self·src(p): a lane demanding
/// one bit takes it; a lane demanding both is a clash. Splitting it
/// (one lane only), the clone is allocated at that point, so clones come
/// in parents-first order. Each position is decided once and cloned at
/// most once, so the instance at most doubles. The root pulls nothing,
/// and needs nothing: it is never demanded selected, so never clashes.
///
/// Sources are seeded by position. Only a *pusher*, a position whose
/// edges select some lane, can make a child other than unselected, so
/// while the edges pushed and pulled stay within the frontier budget
/// the sweep walks: every pusher marks its children's positions, and
/// only marked positions pull; the sources and marked positions are
/// the only ones decided, committed and re-pointed from. Every other
/// position selects nothing, which its zeroed mask already says. Once
/// seeding or the walk passes the budget, the sweep pulls every
/// position below the walk's stopping point: exact, since every parent
/// above it is decided (or, left alone, rightly demands nothing).
///
/// Edges are re-pointed to the right variant in ONE deferred pass at
/// the end — every edge's demand is recomputable from its (by then
/// final) parent mask — which runs only if any split happened at all.
/// Nothing in between reads an edge's variant association: demands are
/// pulled from the original parent positions, which hold both variants'
/// demands.
///
/// The per-occurrence selections this computes are precisely Fig. 4's:
/// each edge stands for a set of tree-node occurrences that share a
/// parent variant, hence share a demanded bit.
Status Downward(Instance* instance, Axis axis,
                std::span<const SweepLane> lanes, OnClash on_clash,
                AxisStats* stats, const CancelToken* cancel) {
  // `inherit` and `or_self` as masks: all lanes or none.
  const LaneMask inherit = axis != Axis::kChild ? 0xFF : 0;
  const LaneMask or_self = axis == Axis::kDescendantOrSelf ? 0xFF : 0;

  // A reference into the traversal cache: the splits below invalidate
  // the cache for *later* readers, but no rebuild can happen while this
  // kernel runs (nothing here re-reads the cache), so the snapshot
  // stays intact.
  const TraversalCache& t = instance->EnsureParentIndex();
  const size_t reachable = t.order.size();
  const size_t n0 = instance->vertex_count();
  const LaneMask full = AllLanes(lanes.size());
  const uint64_t budget = FrontierBudget(t);
  std::vector<LaneMask> src_mask(reachable, 0);
  std::vector<LaneMask> dst_mask(reachable, 0);
  std::vector<uint16_t> demands(reachable, Demands(0, 0, full));
  // Raw views for the hot loops: a byte store may alias any vector's
  // members, which would reload them on every edge.
  const uint32_t* const offsets = t.parent_offsets.data();
  const uint32_t* const parents = t.parents.data();
  LaneMask* const src = src_mask.data();
  LaneMask* const dst = dst_mask.data();
  uint16_t* const out = demands.data();

  // Edges pushed and pulled so far; seeding counts the sources' out-edges
  // (every source pushes) until it passes the budget.
  uint64_t work = 0;
  DynamicBitset seeds(reachable);
  SeedPositions(*instance, lanes, t, src, [&](uint32_t p) {
    if (work <= budget) {
      work += instance->Children(t.order[p]).size();
      seeds.Set(p);
    }
  });

  // counterpart[w] is w's bit-1 clone when w split; sized at the first
  // split. Clone n0 + i split from position split_from[i].
  std::vector<VertexId> counterpart;
  std::vector<uint32_t> split_from;
  uint64_t decided = 0;
  Status status;
  // A clash at position p: split it, or refuse (false).
  const auto clash = [&](size_t p) {
    if (on_clash == OnClash::kRefuse) {
      status = Status::Incompatible("downward sweep clash: a split");
      return false;
    }
    // One lane: the original keeps 0 (dst[p] stays 0); the clone (same
    // child list) takes 1.
    assert(lanes.size() == 1);
    const VertexId w = t.order[p];
    if (counterpart.empty()) counterpart.assign(n0, kNoVertex);
    counterpart[w] = instance->CloneVertex(w);
    split_from.push_back(static_cast<uint32_t>(p));
    if (stats != nullptr) ++stats->splits;
    out[p] = Demands(static_cast<LaneMask>(src[p] | (inherit & full)), src[p],
                     full);
    return true;
  };
  // Decides position p from its pulled demands; false for a clash the
  // sweep may not split, or a tripped token. Checkpoints every 4096
  // decided positions: clones allocated so far are unreachable (edges
  // re-point only in the deferred pass below) and the dst columns are
  // untouched until the final bit pass, so an abort here leaves the
  // instance representing the same tree, at worst with unreachable clone
  // leftovers.
  const auto decide = [&](size_t p, uint16_t pulled) {
    if (cancel != nullptr && ++decided % 4096 == 0 &&
        !(status = cancel->Check()).ok()) {
      return false;
    }
    const LaneMask d1 = static_cast<LaneMask>(pulled);
    const LaneMask d0 = static_cast<LaneMask>(pulled >> kMaskLanes);
    const LaneMask os = or_self & src[p];  // all occurrences
    if ((d1 & d0 & ~os) != 0) [[unlikely]] {
      return clash(p);
    }
    dst[p] = static_cast<LaneMask>(os | d1);
    const LaneMask one = static_cast<LaneMask>(src[p] | (inherit & dst[p]));
    out[p] = Demands(one, one, full);
    return true;
  };
  const auto pull = [&](size_t p) {
    uint16_t pulled = 0;
    for (uint32_t i = offsets[p], end = offsets[p + 1]; i < end; ++i) {
      pulled |= out[parents[i]];
    }
    return pulled;
  };

  // The dense pull covers positions [0, dense_top): all of them once
  // seeding passed the budget, those below the stopping point of a walk
  // that did, none after a walk that finished.
  size_t dense_top = work > budget ? reachable : 0;
  DynamicBitset marks(reachable);
  const std::vector<uint64_t>& seeded = seeds.words();
  const std::vector<uint64_t>& marked = marks.words();
  for (size_t w = marked.size(); dense_top == 0 && w-- > 0;) {
    // Marks only land below the position being walked, so re-reading
    // the word picks up those in it.
    uint64_t walked = 0;
    for (uint64_t left; (left = (seeded[w] | marked[w]) & ~walked) != 0;) {
      const int bit = 63 - std::countl_zero(left);
      walked |= uint64_t{1} << bit;
      const size_t p = w * 64 + static_cast<size_t>(bit);
      const bool pulls = (marked[w] >> bit) & 1;
      if (pulls && (work += offsets[p + 1] - offsets[p]) > budget) {
        dense_top = p + 1;
        break;
      }
      // An unmarked position has no pusher above it: nothing demands it
      // selected.
      if (!decide(p, pulls ? pull(p) : 0)) return status;
      if (static_cast<LaneMask>(out[p]) == 0) continue;
      const std::span<const Edge> children = instance->Children(t.order[p]);
      if (!((seeded[w] >> bit) & 1) &&
          (work += children.size()) > budget) {
        dense_top = p;
        break;
      }
      for (const Edge& e : children) marks.Set(t.position[e.child]);
    }
  }
  for (size_t p = dense_top; p-- > 0;) {
    if (!decide(p, pull(p))) return status;
  }
  if (dense_top > 0) {
    marks.SetAll();
  } else {
    marks |= seeds;
  }

  // Last checkpoint before the commit phases (re-point + bit pass):
  // past this point the sweep runs to completion.
  if (cancel != nullptr) XCQ_RETURN_IF_ERROR(cancel->Check());

  // Deferred re-point pass, skipped when nothing split: every edge to a
  // split vertex goes to the variant its own demand selects. Only
  // decided positions and clones can select a lane.
  if (!counterpart.empty()) {
    const auto repoint = [&](VertexId v, LaneMask one) {
      if (one == 0) return;
      const std::span<const Edge> children = instance->Children(v);
      for (uint32_t j = 0; j < children.size(); ++j) {
        const VertexId w = children[j].child;
        if (counterpart[w] == kNoVertex) continue;
        // A split child never has or-self·src(w) (that forces every
        // occurrence selected, i.e. no split), so the edge's variant
        // depends on the parent's demand alone.
        assert((or_self & src[t.position[w]]) == 0);
        instance->MutableChildren(v)[j].child = counterpart[w];
      }
    };
    marks.ForEach([&](size_t p) {
      repoint(t.order[p], static_cast<LaneMask>(src[p] | (inherit & dst[p])));
    });
    for (size_t i = 0; i < split_from.size(); ++i) {
      repoint(static_cast<VertexId>(n0 + i),
              static_cast<LaneMask>(src[split_from[i]] | (inherit & full)));
    }
  }

  CommitPositions(instance, lanes, t.order, marks, dst);
  CommitClones(instance, lanes, n0);
  if (stats != nullptr) stats->visited += marks.Count() + split_from.size();
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
