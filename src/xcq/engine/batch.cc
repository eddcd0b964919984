#include "xcq/engine/batch.h"

#include <cstdint>
#include <vector>

namespace xcq::engine {

namespace {

using xpath::Axis;

/// Per-vertex mask of the lanes whose `src` selection contains v,
/// computed once per sweep from each lane's set bits. Bits of
/// unreachable split leftovers land in the mask too; no kernel reads
/// them.
std::vector<uint64_t> SourceMasks(const Instance& instance,
                                  std::span<const SweepLane> lanes) {
  std::vector<uint64_t> src_mask(instance.vertex_count(), 0);
  for (size_t q = 0; q < lanes.size(); ++q) {
    instance.RelationBits(lanes[q].src).ForEach(
        [&](size_t v) { src_mask[v] |= uint64_t{1} << q; });
  }
  return src_mask;
}

/// Writes each lane's dst bits from the per-vertex result masks.
void CommitMasks(Instance* instance, std::span<const SweepLane> lanes,
                 const std::vector<VertexId>& order,
                 const std::vector<uint64_t>& dst_mask) {
  for (const VertexId v : order) {
    uint64_t m = dst_mask[v];
    while (m != 0) {
      const int q = __builtin_ctzll(m);
      instance->SetBit(lanes[static_cast<size_t>(q)].dst, v);
      m &= m - 1;
    }
  }
}

/// The mask with one bit per lane.
uint64_t AllLanes(std::span<const SweepLane> lanes) {
  return lanes.size() == kMaskLanes ? ~uint64_t{0}
                                    : (uint64_t{1} << lanes.size()) - 1;
}

}  // namespace

void SharedUpward(Instance* instance, Axis axis,
                  std::span<const SweepLane> lanes) {
  const bool ancestor =
      axis == Axis::kAncestor || axis == Axis::kAncestorOrSelf;
  const TraversalCache& t = instance->EnsureTraversal();
  const std::vector<uint64_t> src_mask = SourceMasks(*instance, lanes);
  std::vector<uint64_t> up_mask(instance->vertex_count(), 0);

  // Children-first over the cached order covers both axes.
  for (const VertexId v : t.order) {
    uint64_t m = 0;
    for (const Edge& e : instance->Children(v)) {
      m |= src_mask[e.child];
      if (ancestor) m |= up_mask[e.child];
    }
    up_mask[v] = m;
  }

  if (axis == Axis::kAncestorOrSelf) {
    for (const VertexId v : t.order) up_mask[v] |= src_mask[v];
  }
  CommitMasks(instance, lanes, t.order, up_mask);
}

/// A vertex demanded with both bits by one lane (and not folded by
/// or-self) is a split the per-query kernel would perform: the clash.
bool SharedDownward(Instance* instance, Axis axis,
                    std::span<const SweepLane> lanes) {
  const bool inherit = axis != Axis::kChild;
  const bool or_self = axis == Axis::kDescendantOrSelf;
  const TraversalCache& t = instance->EnsureTraversal();
  const size_t n = instance->vertex_count();
  const uint64_t full = AllLanes(lanes);
  const std::vector<uint64_t> src_mask = SourceMasks(*instance, lanes);

  // demand1[w] / demand0[w]: lanes with an occurrence of w that must be
  // selected / unselected. ORs, hence order-free.
  std::vector<uint64_t> demand1(n, 0);
  std::vector<uint64_t> demand0(n, 0);
  std::vector<uint64_t> dst_mask(n, 0);
  const VertexId root = instance->root();

  // Parents first: reverse post-order.
  for (auto it = t.order.rbegin(); it != t.order.rend(); ++it) {
    const VertexId w = *it;
    uint64_t d1 = demand1[w];
    uint64_t d0 = demand0[w];
    if (w == root) d0 = full;  // the root is entered by no edge
    const uint64_t os = or_self ? src_mask[w] : 0;
    if ((d1 & d0 & ~os) != 0) return false;
    const uint64_t mine = os | d1;
    dst_mask[w] = mine;
    const uint64_t out1 = src_mask[w] | (inherit ? mine : uint64_t{0});
    const uint64_t out0 = full & ~out1;
    for (const Edge& e : instance->Children(w)) {
      demand1[e.child] |= out1;
      demand0[e.child] |= out0;
    }
  }
  CommitMasks(instance, lanes, t.order, dst_mask);
  return true;
}

/// A run straddling a lane's selection boundary demands both bits of its
/// child — the split the per-query kernel performs, hence the clash.
/// Conflict-free demand masks ARE the answer: the rewritten lists would
/// equal the originals run for run.
bool SharedSibling(Instance* instance, Axis axis,
                   std::span<const SweepLane> lanes) {
  const bool forward = axis == Axis::kFollowingSibling;
  const TraversalCache& t = instance->EnsureTraversal();
  const size_t n = instance->vertex_count();
  const uint64_t full = AllLanes(lanes);
  const std::vector<uint64_t> src_mask = SourceMasks(*instance, lanes);

  std::vector<uint64_t> demand1(n, 0);
  std::vector<uint64_t> demand0(n, 0);

  const auto demand_run = [&](VertexId child, uint64_t count,
                              uint64_t seen, uint64_t in_src) {
    // First (forward) / last (backward) occurrence of the run takes the
    // `seen` history; the remaining count-1 follow (precede) a
    // same-vertex occurrence, so their history also includes in_src.
    uint64_t d1 = seen;
    uint64_t d0 = full & ~seen;
    if (count > 1) {
      const uint64_t bulk = seen | in_src;
      d1 |= bulk;
      d0 |= full & ~bulk;
    }
    demand1[child] |= d1;
    demand0[child] |= d0;
  };
  for (const VertexId v : t.order) {
    const std::span<const Edge> runs = instance->Children(v);
    uint64_t seen = 0;
    if (forward) {
      for (const Edge& run : runs) {
        const uint64_t in_src = src_mask[run.child];
        demand_run(run.child, run.count, seen, in_src);
        seen |= in_src;
      }
    } else {
      for (size_t r = runs.size(); r-- > 0;) {
        const uint64_t in_src = src_mask[runs[r].child];
        demand_run(runs[r].child, runs[r].count, seen, in_src);
        seen |= in_src;
      }
    }
  }
  demand0[instance->root()] |= full;

  uint64_t clash = 0;
  for (const VertexId v : t.order) clash |= demand1[v] & demand0[v];
  if (clash != 0) return false;
  CommitMasks(instance, lanes, t.order, demand1);
  return true;
}

}  // namespace xcq::engine
