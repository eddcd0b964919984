#ifndef XCQ_ENGINE_LANE_MASK_H_
#define XCQ_ENGINE_LANE_MASK_H_

/// \file lane_mask.h
/// The per-vertex lane masks every sweep kernel carries
/// (docs/INTERNALS.md §8.5): bit q of a vertex's one-byte mask belongs
/// to lane q of the sweep, so a sweep holds up to kMaskLanes lanes and a
/// QUERY uses bit 0. Also what the position-keyed kernels (upward and
/// downward) share: the frontier budget, seeding by position and the
/// commit from positions.

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "xcq/engine/axes.h"
#include "xcq/util/string_util.h"

namespace xcq::engine {

/// One bit per lane of a sweep.
using LaneMask = uint8_t;
static_assert(kMaskLanes == std::numeric_limits<LaneMask>::digits);

/// The mask with one bit per lane.
inline LaneMask AllLanes(size_t lanes) {
  return static_cast<LaneMask>((1u << lanes) - 1);
}

/// A sweep walks its frontier while the edges the walk has to cross stay
/// within this share of the reachable edges (`FrontierBudget`), and
/// passes over every position otherwise: an upward sweep pushes, a
/// downward one pulls. Measured on a 4-vCPU VM (g++ 12.2, Release):
///  * upward, against the dense push, one lane, median of 31 alternated
///    calls from the label columns, every reachable vertex and one
///    5-lane set of warmed SwissProt, TreeBank at half scale,
///    Shakespeare, XMark and DBLP instances. `parent` (whose in-edges
///    are known once seeded) breaks even with the push from every vertex
///    at shares of 0.22-0.45; walks within 0.2 take 0.08-0.16x its time
///    (geometric mean per corpus), 0.97x at worst. An ancestor walk
///    learns its closure only as it goes: walks that finish take
///    0.03-0.38x (0.99x at worst), and those that outgrow the budget
///    push on from where they stopped, so nothing walked is redone.
///  * downward, where a walk counts the out-edges it pushes and the
///    in-edges it pulls, and decides a position at several times the
///    dense pull's cost. With one budget for both families, one round of
///    the five navigate_mixed queries (median of 31) and one shared
///    RunBatch per batch_shared document, summed (median of 15), three
///    alternated processes each: 0.2 took 6.40-6.64 and 8.04-8.25 ms,
///    0.3 6.66-6.93 and 8.07-8.31 ms, 0.1 6.86-7.04 and 9.12-9.43 ms,
///    0.05 7.01-7.31 and 9.36-9.73 ms.
/// 0.1 would also send TreeBank's Q1 parent steps (shares 0.09-0.13) to
/// the push, which takes TreeBank parent steps of shares 0.12-0.18
/// 1.7-3.4x as long as their walks.
inline constexpr double kFrontierEdgeShare = 0.2;

/// The edges a frontier walk over `t` may cross before the sweep turns
/// dense.
inline uint64_t FrontierBudget(const TraversalCache& t) {
  return static_cast<uint64_t>(kFrontierEdgeShare *
                               static_cast<double>(t.reachable_edges));
}

/// Seeds `mask`, one byte per position of `t`'s post-order, with the
/// lanes whose `src` holds the vertex there, and calls `first(p)` when
/// position p gets its first lane. Bits of unreachable ids (split
/// leftovers) have no position and are skipped. `t` must carry the
/// parent index.
template <typename OnFirst>
void SeedPositions(const Instance& instance, std::span<const SweepLane> lanes,
                   const TraversalCache& t, LaneMask* mask,
                   const OnFirst& first) {
  const uint32_t* const position = t.position.data();
  for (size_t q = 0; q < lanes.size(); ++q) {
    const LaneMask bit = static_cast<LaneMask>(1u << q);
    const std::vector<uint64_t>& src =
        instance.RelationBits(lanes[q].src).words();
    for (size_t w = 0; w < src.size(); ++w) {
      for (uint64_t bits = src[w]; bits != 0; bits &= bits - 1) {
        const uint32_t p =
            position[w * 64 + static_cast<size_t>(std::countr_zero(bits))];
        if (p == TraversalCache::kNoPosition) continue;
        if (mask[p] == 0) first(p);
        mask[p] |= bit;
      }
    }
  }
}

/// Sets the `dst` bits of the vertices at the `decided` positions of
/// `order` from their masks, one pass per lane, so a QUERY's commit is
/// a plain loop over one column. Every decided position ORs its bit,
/// set or not: a branch on the mask would mispredict on every other
/// vertex of a mixed selection.
inline void CommitPositions(Instance* instance,
                            std::span<const SweepLane> lanes,
                            const std::vector<VertexId>& order,
                            const DynamicBitset& decided,
                            const LaneMask* mask) {
  for (size_t q = 0; q < lanes.size(); ++q) {
    DynamicBitset& dst = instance->MutableRelationBits(lanes[q].dst);
    decided.ForEach([&](size_t p) {
      const VertexId v = order[p];
      dst.OrWord(v >> 6, uint64_t{(mask[p] >> q) & 1u} << (v & 63));
    });
  }
}

/// Sets the `dst` bit of every clone a splitting sweep allocated (ids
/// from `n0` on): a clone always takes 1, and only a one-lane sweep
/// splits.
inline void CommitClones(Instance* instance, std::span<const SweepLane> lanes,
                         size_t n0) {
  for (size_t v = n0; v < instance->vertex_count(); ++v) {
    instance->SetBit(lanes.front().dst, static_cast<VertexId>(v));
  }
}

/// The preconditions of every kernel: an axis of its family, a rooted
/// instance, 1 to kMaskLanes lanes, and a split policy only for one lane.
inline Status CheckSweep(const Instance& instance, bool family_axis,
                         std::span<const SweepLane> lanes, OnClash on_clash,
                         const char* kernel) {
  if (!family_axis) {
    return Status::InvalidArgument(StrFormat("%s: wrong axis", kernel));
  }
  if (instance.root() == kNoVertex) {
    return Status::InvalidArgument(StrFormat("%s: empty instance", kernel));
  }
  if (lanes.empty() || lanes.size() > kMaskLanes ||
      (on_clash == OnClash::kSplit && lanes.size() != 1)) {
    return Status::InvalidArgument(
        StrFormat("%s: %zu lanes", kernel, lanes.size()));
  }
  return Status::OK();
}

}  // namespace xcq::engine

#endif  // XCQ_ENGINE_LANE_MASK_H_
