#include <bit>
#include <vector>

#include "xcq/engine/axes.h"
#include "xcq/engine/lane_mask.h"

namespace xcq::engine {

using xpath::Axis;

namespace {

/// An upward sweep walks its frontier while the in-edges it has to push
/// stay within this share of the reachable edges, and makes the full
/// pass otherwise. Measured against the full pass, one lane, median of
/// 31 alternated calls (4-vCPU VM, g++ 12.2, Release), from 86 sources
/// per axis (label columns and random sets) over SwissProt, TreeBank at
/// half scale, XMark, Shakespeare and DBLP:
///  * a walked in-edge costs about 2.3-2.7 full-pass edges, so `parent`
///    (whose in-edges are known once seeded) breaks even near 0.45; at
///    0.2 it takes 0.22x the time (geometric mean), from every vertex
///    0.96-1.19x (seeding stops at the budget);
///  * an ancestor walk learns its closure only as it goes: walks that
///    finish take 0.10x, walks that outgrow the budget and go on over
///    every position 0.94x (worst 1.5x). Shares of 0.1 and 0.3 left
///    those about the same, but 0.1 sends TreeBank's Q1 parent steps
///    (shares 0.09-0.13) to the full pass: 1.47 -> 2.02 ms.
constexpr double kFrontierEdgeShare = 0.2;

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
/// This is the full form, for dense sources: a pull over every reachable
/// vertex and edge, front to back along the cached post-order.
template <typename Mask>
void FullPass(Instance* instance, Axis axis, std::span<const SweepLane> lanes,
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

/// One upward sweep; returns the vertices it decided. Seeds the reachable
/// sources by post-order position, summing their in-edges; past
/// kFrontierEdgeShare of the reachable edges it runs FullPass instead.
/// Otherwise it walks the frontier from them: a bitset over positions,
/// ascending, so every child of a vertex has pushed before the vertex is
/// reached. Each walked vertex ORs what it carries into its parents and
/// marks them: into the frontier for the ancestor axes, into a bitset of
/// its own for `parent`, whose targets push nothing. Only marked
/// vertices (and, for ancestor-or-self, the sources) are committed. An
/// ancestor walk also adds the in-edges of every vertex it reaches from
/// below; past the same share it goes on over every remaining position.
template <typename Mask>
uint64_t Upward(Instance* instance, Axis axis,
                std::span<const SweepLane> lanes, const TraversalCache& t) {
  const bool ancestor = axis != Axis::kParent;
  const size_t reachable = t.order.size();
  const uint64_t budget = static_cast<uint64_t>(
      kFrontierEdgeShare * static_cast<double>(t.reachable_edges));
  uint64_t in_edges = 0;
  const auto in_degree = [&](size_t p) {
    return t.parent_offsets[p + 1] - t.parent_offsets[p];
  };
  // Indexed by position, like everything below.
  std::vector<Mask> carry(reachable, 0);
  DynamicBitset frontier(reachable);
  for (size_t q = 0; q < lanes.size() && in_edges <= budget; ++q) {
    const Mask bit = static_cast<Mask>(Mask{1} << q);
    const std::vector<uint64_t>& src =
        instance->RelationBits(lanes[q].src).words();
    for (size_t w = 0; w < src.size() && in_edges <= budget; ++w) {
      for (uint64_t bits = src[w]; bits != 0; bits &= bits - 1) {
        const uint32_t p =
            t.position[w * 64 + static_cast<size_t>(std::countr_zero(bits))];
        if (p == TraversalCache::kNoPosition) continue;
        if (carry[p] == 0) {
          in_edges += in_degree(p);
          frontier.Set(p);
        }
        carry[p] |= bit;
      }
    }
  }
  if (in_edges > budget) {
    FullPass<Mask>(instance, axis, lanes, t.order);
    return reachable;
  }

  std::vector<Mask> up_mask(reachable, 0);
  DynamicBitset parents_only(ancestor ? 0 : reachable);
  DynamicBitset& marked = ancestor ? frontier : parents_only;
  const std::vector<uint64_t>& words = frontier.words();
  size_t outgrown_at = reachable;
  for (size_t w = 0; w < words.size() && outgrown_at == reachable; ++w) {
    // Marks only land above the vertex being walked, so re-reading the
    // word picks up those in it.
    uint64_t walked = 0;
    for (uint64_t left; (left = words[w] & ~walked) != 0;) {
      walked |= left & (~left + 1);
      const size_t p = w * 64 + static_cast<size_t>(std::countr_zero(left));
      if (ancestor) {
        if (carry[p] == 0 && (in_edges += in_degree(p)) > budget) {
          outgrown_at = p;
          break;
        }
        carry[p] |= up_mask[p];
      }
      const Mask m = carry[p];
      for (uint32_t i = t.parent_offsets[p]; i < t.parent_offsets[p + 1];
           ++i) {
        up_mask[t.parents[i]] |= m;
        marked.Set(t.parents[i]);
      }
    }
  }
  if (outgrown_at < reachable) {
    // Every position below is decided, so the walk goes on over every
    // position from there, without the bitset: cheaper than restarting
    // with FullPass, which would redo the walked part.
    for (size_t p = outgrown_at; p < reachable; ++p) {
      const Mask m = carry[p] |= up_mask[p];
      if (m == 0) continue;
      for (uint32_t i = t.parent_offsets[p]; i < t.parent_offsets[p + 1];
           ++i) {
        up_mask[t.parents[i]] |= m;
      }
    }
    marked.SetAll();
  }
  // ancestor-or-self is exactly the carry.
  const std::vector<Mask>& dst_mask =
      axis == Axis::kAncestorOrSelf ? carry : up_mask;
  for (size_t q = 0; q < lanes.size(); ++q) {
    DynamicBitset& dst = instance->MutableRelationBits(lanes[q].dst);
    marked.ForEach([&](size_t p) {
      if ((dst_mask[p] >> q) & 1) dst.Set(t.order[p]);
    });
  }
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
  const uint64_t visited = lanes.size() <= kNarrowMaskLanes
                               ? Upward<uint8_t>(instance, axis, lanes, t)
                               : Upward<uint64_t>(instance, axis, lanes, t);
  if (stats != nullptr) stats->visited += visited;
  return Status::OK();
}

Status ApplyUpwardAxis(Instance* instance, Axis axis, RelationId src,
                       RelationId dst, AxisStats* stats,
                       const CancelToken* cancel) {
  const SweepLane lane{.src = src, .dst = dst};
  return SweepUpward(instance, axis, {&lane, 1}, stats, cancel);
}

}  // namespace xcq::engine
