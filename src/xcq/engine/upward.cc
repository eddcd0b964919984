#include <vector>

#include "xcq/engine/axes.h"

namespace xcq::engine {

using xpath::Axis;

namespace {

/// Region form of kParent / kAncestor(-OrSelf) (docs/INTERNALS.md
/// §9.5). Upward axes never split (Prop. 3.3) and only *read* the DAG:
/// kParent is one flat pass over the cached order, kAncestor a
/// leaf-first band sweep in which a band reads only bits of strictly
/// lower, already final bands. Each vertex's bit lands in its own byte
/// of `up_bit`; the bits enter the relation column in one pass at the
/// end, which also keeps unreachable split leftovers silent, exactly
/// like the unpruned loop over the post-order.
///
/// Only region vertices are decided. The region is V(dst): a vertex
/// outside it can neither be selected nor (being unselected) influence
/// an ancestor's decision, so skipped children are read as up_bit = 0,
/// which is their unpruned value.
Status ApplyUpwardAxisBanded(Instance* instance, Axis axis, RelationId src,
                             RelationId dst, AxisStats* stats,
                             const DynamicBitset& region, EvalGuard* guard) {
  const bool ancestor =
      axis == Axis::kAncestor || axis == Axis::kAncestorOrSelf;
  const TraversalCache& plan =
      instance->EnsureTraversal(/*need_heights=*/ancestor);
  const DynamicBitset& src_bits = instance->RelationBits(src);
  std::vector<uint8_t> up_bit(instance->vertex_count(), 0);

  const auto sweep = [&](const std::vector<VertexId>& vertices) {
    for (const VertexId v : vertices) {
      if (!region.Test(v)) continue;
      for (const Edge& e : instance->Children(v)) {
        if (src_bits.Test(e.child) ||
            (ancestor && up_bit[e.child] != 0)) {
          up_bit[v] = 1;
          break;
        }
      }
    }
  };

  if (!ancestor) {
    // kParent reads only `src`. Upward sweeps never mutate, so a single
    // guard charge up front suffices — an abort here costs at most one
    // flat pass of overshoot.
    if (guard != nullptr) {
      XCQ_RETURN_IF_ERROR(guard->Charge(plan.order.size(), 0));
    }
    sweep(plan.order);
  } else {
    // kAncestor: leaf-first bands. Read-only, so the between-band
    // checkpoint may abort anywhere.
    for (const std::vector<VertexId>& band : plan.bands) {
      if (band.empty()) continue;
      if (guard != nullptr) {
        XCQ_RETURN_IF_ERROR(guard->Charge(band.size(), 0));
      }
      sweep(band);
    }
  }

  for (const VertexId v : plan.order) {
    if (up_bit[v] != 0) instance->SetBit(dst, v);
  }
  if (axis == Axis::kAncestorOrSelf) {
    instance->MutableRelationBits(dst) |= src_bits;
  }
  if (stats != nullptr) stats->visited += region.Count();
  return Status::OK();
}

}  // namespace

/// Upward axes never split (Prop. 3.3): whether some tree node below a
/// shared vertex is selected is a property of the vertex itself (the
/// whole point of bisimulation-based sharing is that the subtree below a
/// vertex is the same for all of its occurrences), so one bottom-up pass
/// suffices.
Status ApplyUpwardAxis(Instance* instance, Axis axis, RelationId src,
                       RelationId dst, AxisStats* stats,
                       const DynamicBitset* region, EvalGuard* guard) {
  if (!xpath::IsUpwardAxis(axis)) {
    return Status::InvalidArgument("ApplyUpwardAxis: not an upward axis");
  }
  if (instance->root() == kNoVertex) {
    return Status::InvalidArgument("ApplyUpwardAxis: empty instance");
  }

  // A region selects the banded form (kSelf is a plain column copy and
  // is never gated).
  if (axis != Axis::kSelf && region != nullptr) {
    return ApplyUpwardAxisBanded(instance, axis, src, dst, stats, *region,
                                 guard);
  }

  // Unpruned upward sweeps only read the DAG and set bits of the
  // zeroed dst column, so any stride boundary is a safe abort point.
  constexpr uint64_t kGuardStride = 4096;
  uint64_t since_charge = 0;
  const auto charge_stride = [&]() -> Status {
    if (guard != nullptr && ++since_charge % kGuardStride == 0) {
      return guard->Charge(kGuardStride, 0);
    }
    return Status::OK();
  };

  switch (axis) {
    case Axis::kSelf: {
      instance->MutableRelationBits(dst) = instance->RelationBits(src);
      return Status::OK();
    }
    case Axis::kParent: {
      // v is a parent of a selected node iff one of its children is
      // selected; reachability restriction keeps split leftovers silent.
      // Upward axes never mutate, so the cached order is read directly.
      for (VertexId v : instance->EnsureTraversal().order) {
        XCQ_RETURN_IF_ERROR(charge_stride());
        for (const Edge& e : instance->Children(v)) {
          if (instance->Test(src, e.child)) {
            instance->SetBit(dst, v);
            break;
          }
        }
      }
      if (stats != nullptr) {
        stats->visited += instance->EnsureTraversal().order.size();
      }
      return Status::OK();
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      // Children-first: dst[child] is final before any parent reads it.
      for (VertexId v : instance->EnsureTraversal().order) {
        XCQ_RETURN_IF_ERROR(charge_stride());
        for (const Edge& e : instance->Children(v)) {
          if (instance->Test(src, e.child) ||
              instance->Test(dst, e.child)) {
            instance->SetBit(dst, v);
            break;
          }
        }
      }
      if (axis == Axis::kAncestorOrSelf) {
        instance->MutableRelationBits(dst) |= instance->RelationBits(src);
      }
      if (stats != nullptr) {
        stats->visited += instance->EnsureTraversal().order.size();
      }
      return Status::OK();
    }
    default:
      return Status::Internal("unhandled upward axis");
  }
}

}  // namespace xcq::engine
