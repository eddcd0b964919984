#ifndef XCQ_ENGINE_LANE_MASK_H_
#define XCQ_ENGINE_LANE_MASK_H_

/// \file lane_mask.h
/// The per-vertex lane masks every sweep kernel carries
/// (docs/INTERNALS.md §8.5): bit q of a vertex's one-byte mask belongs
/// to lane q of the sweep, so a sweep holds up to kMaskLanes lanes and a
/// QUERY uses bit 0.

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
/// leftovers land in the mask too; no kernel reads them.
inline std::vector<LaneMask> SourceMasks(const Instance& instance,
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
