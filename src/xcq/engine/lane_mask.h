#ifndef XCQ_ENGINE_LANE_MASK_H_
#define XCQ_ENGINE_LANE_MASK_H_

/// \file lane_mask.h
/// The per-vertex lane masks every sweep kernel carries
/// (docs/INTERNALS.md §8.5): bit q of a vertex's mask word belongs to
/// lane q of the sweep. The word is `uint8_t` for up to
/// kNarrowMaskLanes lanes, a QUERY's single lane among them, and
/// `uint64_t` for up to kMaskLanes; each kernel picks it from the lane
/// count.

#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "xcq/engine/axes.h"
#include "xcq/util/string_util.h"

namespace xcq::engine {

/// Lane counts up to this sweep with `uint8_t` mask words.
inline constexpr size_t kNarrowMaskLanes = 8;

/// The mask with one bit per lane.
template <typename Mask>
Mask AllLanes(size_t lanes) {
  return lanes == std::numeric_limits<Mask>::digits
             ? std::numeric_limits<Mask>::max()
             : static_cast<Mask>((Mask{1} << lanes) - 1);
}

/// A vertex's demands: the lanes for which some occurrence of it must
/// be selected (`one`) and unselected (`zero`), packed into one word of
/// twice the mask width so a push is a single OR. Demands only grow by
/// OR, so their final value does not depend on the order of the pushes.
template <typename Mask>
class Demand {
 public:
  void Push(Mask one, Mask zero) {
    word_ |= static_cast<Word>(Word{one} | (Word{zero} << kBits));
  }
  Mask one() const { return static_cast<Mask>(word_); }
  Mask zero() const { return static_cast<Mask>(word_ >> kBits); }

 private:
  using Word =
      std::conditional_t<sizeof(Mask) == 1, uint16_t, unsigned __int128>;
  static constexpr int kBits = std::numeric_limits<Mask>::digits;
  Word word_ = 0;
};

/// Per-vertex mask of the lanes whose `src` selection contains v,
/// computed from each lane's set bits. Bits of unreachable split
/// leftovers land in the mask too; no kernel reads them.
template <typename Mask>
std::vector<Mask> SourceMasks(const Instance& instance,
                              std::span<const SweepLane> lanes) {
  std::vector<Mask> src_mask(instance.vertex_count(), 0);
  for (size_t q = 0; q < lanes.size(); ++q) {
    const Mask bit = static_cast<Mask>(Mask{1} << q);
    instance.RelationBits(lanes[q].src).ForEach(
        [&](size_t v) { src_mask[v] |= bit; });
  }
  return src_mask;
}

/// Sets the `dst` bits of the vertices in `order` from their masks
/// (`mask_of(v)`), one pass per lane, so a QUERY's commit is a plain
/// loop over one column.
template <typename MaskOf>
void CommitMasks(Instance* instance, std::span<const SweepLane> lanes,
                 const std::vector<VertexId>& order, const MaskOf& mask_of) {
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
