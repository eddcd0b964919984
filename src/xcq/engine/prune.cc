#include "xcq/engine/prune.h"

#include <algorithm>
#include <string_view>

namespace xcq::engine {
namespace {

using algebra::Op;
using algebra::OpKind;
using xpath::Axis;

// --- Node-set transfers over the summary trie ------------------------------
//
// Summary nodes are created parents-first (node 0 is the root's path and
// every node's parent has a smaller id), so one ascending index pass
// computes a downward closure and one descending pass an upward closure.

/// set ∪= all trie descendants of set.
void CloseDown(const PathSummary& s, DynamicBitset* set) {
  for (size_t j = 1; j < s.nodes.size(); ++j) {
    if (set->Test(s.nodes[j].parent)) set->Set(j);
  }
}

/// set ∪= all trie ancestors of set.
void CloseUp(const PathSummary& s, DynamicBitset* set) {
  for (size_t j = s.nodes.size(); j-- > 1;) {
    if (set->Test(j)) set->Set(s.nodes[j].parent);
  }
}

/// out = trie children of `in` (out must be zeroed, distinct from in).
void TrieChildren(const PathSummary& s, const DynamicBitset& in,
                  DynamicBitset* out) {
  for (size_t j = 1; j < s.nodes.size(); ++j) {
    if (in.Test(s.nodes[j].parent)) out->Set(j);
  }
}

/// out ∪= trie parents of `in`.
void TrieParents(const PathSummary& s, const DynamicBitset& in,
                 DynamicBitset* out) {
  for (size_t j = 1; j < s.nodes.size(); ++j) {
    if (in.Test(j)) out->Set(s.nodes[j].parent);
  }
}

bool IsReserved(std::string_view name) { return name.starts_with("xcq:"); }

}  // namespace

// --- SummaryRegions --------------------------------------------------------

void SummaryRegions::Bind(const Instance& instance) {
  instance_ = &instance;
  summary_ = &instance.EnsurePathSummary();
  active_ = !summary_->saturated && !summary_->nodes.empty() &&
            instance.vertex_count() > 0;
  bound_vertices_ = active_ ? instance.vertex_count() : 0;
}

void SummaryRegions::CollectRealized(const DynamicBitset& base) {
  const PathSummary& s = *summary_;
  collected_.Resize(s.nodes.size(), false);
  collected_.ResetAll();
  // Post-bind clones need no scan: a clone's true path set is a subset
  // of its original's bind-time set, so the original already collects a
  // superset of anything the clone could contribute.
  const size_t n =
      std::min(instance_->vertex_count(), bound_vertices_);
  for (size_t v = 0; v < n; ++v) {
    const uint32_t begin = s.vertex_begin[v];
    const uint32_t end = s.vertex_begin[v + 1];
    bool in_base = false;
    for (uint32_t k = begin; k < end && !in_base; ++k) {
      in_base = base.Test(s.vertex_nodes[k]);
    }
    if (!in_base) continue;
    for (uint32_t k = begin; k < end; ++k) {
      collected_.Set(s.vertex_nodes[k]);
    }
  }
}

uint64_t SummaryRegions::Realize(const DynamicBitset& want) {
  const PathSummary& s = *summary_;
  const size_t n = instance_->vertex_count();
  const size_t known = std::min(n, bound_vertices_);
  region_.Resize(n, false);
  region_.ResetAll();
  uint64_t count = 0;
  for (size_t v = 0; v < known; ++v) {
    const uint32_t begin = s.vertex_begin[v];
    const uint32_t end = s.vertex_begin[v + 1];
    for (uint32_t k = begin; k < end; ++k) {
      if (want.Test(s.vertex_nodes[k])) {
        region_.Set(v);
        ++count;
        break;
      }
    }
  }
  // Vertices created after binding (mid-plan split clones) have no
  // realization slice; admit them unconditionally — conservative, and
  // there are few of them relative to the corpus.
  for (size_t v = known; v < n; ++v) {
    region_.Set(v);
    ++count;
  }
  return count;
}

PruneGate SummaryRegions::Gate(AxisFamily family,
                               const DynamicBitset& src_nodes,
                               const DynamicBitset& dst_nodes) {
  PruneGate gate;
  if (!active_) return gate;
  if (dst_nodes.None()) {
    // Nothing can be selected, so nothing is demanded both ways either:
    // the unpruned sweep would leave the destination all-zero and the
    // structure untouched (sibling rewrites are equal-content no-ops).
    gate.skip = true;
    return gate;
  }
  const PathSummary& s = *summary_;
  base_.Resize(s.nodes.size(), false);
  base_.ResetAll();
  base_ |= dst_nodes;
  switch (family) {
    case AxisFamily::kUpward:
      // Receivers only: the kernels read child source bits straight off
      // the column, and no vertex outside V(dst) can turn a bit on.
      gate.region_vertices = Realize(base_);
      break;
    case AxisFamily::kDownward: {
      // base = V(src ∪ dst), then close with the vertices realizing a
      // trie-parent of any path of a base vertex: every reachable
      // parent of a base vertex realizes such a path, so the closure
      // contains the fringe whose demand-0 pushes the unpruned kernel
      // would deliver — giving exact split parity.
      base_ |= src_nodes;
      CollectRealized(base_);
      TrieParents(s, collected_, &base_);
      gate.region_vertices = Realize(base_);
      break;
    }
    case AxisFamily::kSibling: {
      // The region is the set of sibling lists to walk: owners of any
      // list containing a source child or a potential receiver — i.e.
      // vertices realizing a trie-parent of any path of V(src ∪ dst).
      base_ |= src_nodes;
      CollectRealized(base_);
      base_.ResetAll();
      TrieParents(s, collected_, &base_);
      if (base_.None()) {
        gate.skip = true;
        return gate;
      }
      gate.region_vertices = Realize(base_);
      break;
    }
  }
  gate.region = &region_;
  return gate;
}

// --- PlanAbstract ----------------------------------------------------------

const DynamicBitset& PlanAbstract::StageSet(size_t i, int stage) const {
  if (stage == 2) return op_sets_[i];
  return stage_sets_.at(i)[static_cast<size_t>(stage)];
}

void PlanAbstract::Compute(const Instance& instance,
                           const PathSummary& summary,
                           const algebra::QueryPlan& plan,
                           const EvalOptions& options) {
  const size_t nn = summary.nodes.size();
  op_sets_.assign(plan.ops.size(), DynamicBitset(nn));
  stage_sets_.clear();
  DynamicBitset tmp(nn);
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    DynamicBitset& out = op_sets_[i];
    switch (op.kind) {
      case OpKind::kRelation: {
        const RelationId r = instance.FindRelation(op.relation);
        if (r == kNoRelation) break;  // empty selection
        if (IsReserved(op.relation)) {
          // Reserved columns (results, kept temporaries) are written by
          // queries, not by compression — their bits are not part of
          // the label alphabet, so admit every path.
          out.SetAll();
          break;
        }
        // Admit the paths ending in a label that contains r.
        std::vector<uint8_t> has(summary.labels.size(), 0);
        for (size_t l = 0; l < summary.labels.size(); ++l) {
          has[l] = std::binary_search(summary.labels[l].begin(),
                                      summary.labels[l].end(), r)
                       ? 1
                       : 0;
        }
        for (size_t j = 0; j < nn; ++j) {
          if (has[summary.nodes[j].label]) out.Set(j);
        }
        break;
      }
      case OpKind::kRoot:
        if (nn > 0) out.Set(0);
        break;
      case OpKind::kAllNodes:
        out.SetAll();
        break;
      case OpKind::kContext:
        if (options.context_relation.empty()) {
          // Empty context = {root} (the evaluator's fallback).
          if (nn > 0) out.Set(0);
        } else {
          // A named context is caller-owned: its bits may be set by
          // hand without a structure-generation bump, so no label
          // information is trustworthy. Admit every path.
          out.SetAll();
        }
        break;
      case OpKind::kUnion:
        out |= op_sets_[op.input0];
        out |= op_sets_[op.input1];
        break;
      case OpKind::kIntersect:
        out |= op_sets_[op.input0];
        out &= op_sets_[op.input1];
        break;
      case OpKind::kDifference:
        // Only the left operand constrains paths (v ∈ result ⟹ v ∈
        // input0 on every occurrence).
        out |= op_sets_[op.input0];
        break;
      case OpKind::kRootFilter:
        // {V if root ∈ S}: if the root's path is inadmissible for the
        // input, the input cannot hold the root and the filter yields ∅.
        if (nn > 0 && op_sets_[op.input0].Test(0)) out.SetAll();
        break;
      case OpKind::kAxis: {
        const DynamicBitset& in = op_sets_[op.input0];
        switch (op.axis) {
          case Axis::kSelf:
            out |= in;
            break;
          case Axis::kChild:
            TrieChildren(summary, in, &out);
            break;
          case Axis::kDescendant:
            TrieChildren(summary, in, &out);
            CloseDown(summary, &out);
            break;
          case Axis::kDescendantOrSelf:
            out |= in;
            CloseDown(summary, &out);
            break;
          case Axis::kParent:
            TrieParents(summary, in, &out);
            break;
          case Axis::kAncestor:
            TrieParents(summary, in, &out);
            CloseUp(summary, &out);
            break;
          case Axis::kAncestorOrSelf:
            out |= in;
            CloseUp(summary, &out);
            break;
          case Axis::kFollowingSibling:
          case Axis::kPrecedingSibling:
            // Children of parents: a superset of the true sibling set
            // (trie-level order is unknown, so both directions share
            // the same abstraction).
            tmp.ResetAll();
            TrieParents(summary, in, &tmp);
            TrieChildren(summary, tmp, &out);
            break;
          case Axis::kFollowing:
          case Axis::kPreceding: {
            // Mirrors the evaluator's three staged sweeps:
            // aos → sibling → dos.
            std::array<DynamicBitset, 2>& stages = stage_sets_[i];
            stages[0] = DynamicBitset(nn);
            stages[0] |= in;
            CloseUp(summary, &stages[0]);
            stages[1] = DynamicBitset(nn);
            tmp.ResetAll();
            TrieParents(summary, stages[0], &tmp);
            TrieChildren(summary, tmp, &stages[1]);
            out |= stages[1];
            CloseDown(summary, &out);
            break;
          }
        }
        break;
      }
    }
  }
}

// --- PlanPruner ------------------------------------------------------------

PlanPruner::PlanPruner(Instance* instance,
                       std::span<const algebra::QueryPlan> plans,
                       const EvalOptions* options)
    : instance_(instance), plans_(plans), options_(options) {}

bool PlanPruner::Sync() {
  const uint64_t generation = instance_->structure_generation();
  const uint64_t fingerprint = instance_->LabelSchemaFingerprint();
  if (bound_ && generation == bound_generation_ &&
      fingerprint == bound_fingerprint_) {
    return regions_.active();
  }
  if (bound_ && fingerprint == bound_fingerprint_ &&
      instance_->vertex_count() >= regions_.bound_vertices()) {
    // Structure-only drift: mid-plan splits add clone vertices and
    // re-point parent edges toward them, but never add labels (the
    // trie and the plans' abstract sets stay exact) and never add
    // incoming edges to pre-existing vertices (their bind-time
    // realization slices stay supersets of the truth). Regions built
    // from the stale summary therefore remain sound once Realize
    // admits every post-bind vertex unconditionally — so keep the
    // binding instead of paying a full summary rebuild per split.
    bound_generation_ = generation;
    return regions_.active();
  }
  regions_.Bind(*instance_);
  if (regions_.active()) {
    abstracts_.resize(plans_.size());
    for (size_t p = 0; p < plans_.size(); ++p) {
      abstracts_[p].Compute(*instance_, regions_.summary(), plans_[p],
                            *options_);
    }
  }
  bound_ = true;
  bound_generation_ = instance_->structure_generation();
  bound_fingerprint_ = instance_->LabelSchemaFingerprint();
  return regions_.active();
}

PruneGate PlanPruner::Gate(AxisFamily family,
                           std::span<const SweepLane> lanes, int stage) {
  if (!Sync()) return PruneGate{};
  bool sources_live = false;
  for (const SweepLane& lane : lanes) {
    sources_live = sources_live || instance_->RelationBits(lane.src).Any();
  }
  if (!sources_live) {
    PruneGate gate;
    gate.skip = true;
    return gate;
  }
  const auto src_set = [&](const SweepLane& lane) -> const DynamicBitset& {
    const PlanAbstract& abs = abstracts_[lane.plan];
    return stage <= 0 ? abs.OpSet(static_cast<size_t>(
                            plans_[lane.plan].ops[lane.op].input0))
                      : abs.StageSet(lane.op, stage - 1);
  };
  const auto dst_set = [&](const SweepLane& lane) -> const DynamicBitset& {
    const PlanAbstract& abs = abstracts_[lane.plan];
    return stage < 0 ? abs.OpSet(lane.op) : abs.StageSet(lane.op, stage);
  };
  if (lanes.size() == 1) {
    return regions_.Gate(family, src_set(lanes[0]), dst_set(lanes[0]));
  }
  const size_t nn = regions_.summary().nodes.size();
  union_src_.Resize(nn, false);
  union_src_.ResetAll();
  union_dst_.Resize(nn, false);
  union_dst_.ResetAll();
  for (const SweepLane& lane : lanes) {
    union_src_ |= src_set(lane);
    union_dst_ |= dst_set(lane);
  }
  return regions_.Gate(family, union_src_, union_dst_);
}

}  // namespace xcq::engine
