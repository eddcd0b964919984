#include "xcq/engine/batch.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "xcq/engine/prune.h"
#include "xcq/util/timer.h"

namespace xcq::engine {

namespace {

using algebra::Op;
using algebra::OpKind;
using xpath::Axis;

/// Queries per mask chunk: one selection bit per query in a uint64.
constexpr size_t kMaskWidth = 64;

/// One axis op scheduled into a shared sweep: plan `plan`'s op `op`
/// mapping selection `src` into scratch column `dst`. Within a chunk
/// the entry's index is its bit position in the per-vertex masks.
struct AxisEntry {
  size_t plan = 0;
  size_t op = 0;
  RelationId src = kNoRelation;
  RelationId dst = kNoRelation;
};

/// Lockstep shared evaluation of N plans (see batch.h). All DAG *reads*
/// go through the traversal cache; all writes touch scratch columns
/// only, so aborting at any point leaves the instance untouched.
class SharedBatchRunner {
 public:
  SharedBatchRunner(Instance* instance, const EvalOptions& options,
                    const std::vector<algebra::QueryPlan>& plans,
                    EvalStats* stats)
      : instance_(instance), options_(options), plans_(plans),
        stats_(stats) {}

  SharedBatchResult Run() {
    SharedBatchResult result;
    if (instance_->vertex_count() == 0 ||
        instance_->root() == kNoVertex) {
      return result;
    }
    // Work budgets are *per query* and shared sweeps have no per-query
    // attribution, so a budgeted evaluation takes the per-query path —
    // where the budgets are enforced exactly.
    if (options_.max_sweep_visits != 0 || options_.max_split_growth != 0) {
      return result;
    }
    size_t max_ops = 0;
    for (const algebra::QueryPlan& plan : plans_) {
      if (plan.ops.empty()) return result;  // vanilla path reports it
      max_ops = std::max(max_ops, plan.ops.size());
    }
    ComputeLastUses();

    // One summary binding serves the whole run: the shared path never
    // mutates the DAG (scratch columns only, abort before any split),
    // so the binding cannot go stale mid-batch. Each plan gets its own
    // abstract interpretation; chunk gates union the members' sets.
    if (options_.prune_sweeps) {
      regions_.Bind(*instance_);
      if (regions_.active()) {
        abstracts_.resize(plans_.size());
        for (size_t p = 0; p < plans_.size(); ++p) {
          abstracts_[p].Compute(*instance_, regions_.summary(), plans_[p],
                                options_);
        }
        prune_ready_ = true;
      }
    }

    op_rel_.resize(plans_.size());
    op_scratch_.resize(plans_.size());
    for (size_t p = 0; p < plans_.size(); ++p) {
      op_rel_[p].assign(plans_[p].ops.size(), kNoRelation);
      op_scratch_[p].assign(plans_[p].ops.size(), 0);
    }

    for (size_t round = 0; round < max_ops; ++round) {
      // Cancellation checkpoint between lockstep rounds, reusing the
      // optimistic-abort path: the shared run never mutates the DAG,
      // so disengaging here leaves the instance untouched and the
      // per-query fallback surfaces the canonical error at its first
      // guard poll.
      if (options_.cancel != nullptr && !options_.cancel->Check().ok()) {
        ReleaseAll();
        return result;
      }
      if (!RunRound(round)) {
        ReleaseAll();
        return result;  // not engaged; instance untouched
      }
      ReleaseDeadColumns(round);
    }

    // Hand every plan's final selection over as a scratch column the
    // caller releases; non-scratch finals (e.g. a plan ending on a bare
    // relation leaf) are copied so the contract is uniform.
    result.results.reserve(plans_.size());
    for (size_t p = 0; p < plans_.size(); ++p) {
      const size_t last = plans_[p].ops.size() - 1;
      RelationId id = op_rel_[p][last];
      if (!op_scratch_[p][last]) {
        const RelationId copy = instance_->AcquireScratchRelation();
        instance_->MutableRelationBits(copy) = instance_->RelationBits(id);
        id = copy;
      } else {
        op_scratch_[p][last] = 0;  // ownership moves to the caller
      }
      result.results.push_back(id);
    }
    ReleaseAll();
    result.engaged = true;
    return result;
  }

 private:
  static constexpr size_t kNeverReleased =
      std::numeric_limits<size_t>::max();

  /// last_use_[p][i]: the latest round that reads op i's column (the
  /// final op is pinned) — scratch is returned as soon as the lockstep
  /// cursor passes it, which keeps a wide batch inside the resident
  /// pool capacity.
  void ComputeLastUses() {
    last_use_.resize(plans_.size());
    for (size_t p = 0; p < plans_.size(); ++p) {
      const std::vector<Op>& ops = plans_[p].ops;
      last_use_[p].assign(ops.size(), 0);
      for (size_t i = 0; i < ops.size(); ++i) {
        last_use_[p][i] = i;
        if (ops[i].input0 >= 0) {
          last_use_[p][static_cast<size_t>(ops[i].input0)] = i;
        }
        if (ops[i].input1 >= 0) {
          last_use_[p][static_cast<size_t>(ops[i].input1)] = i;
        }
      }
      last_use_[p].back() = kNeverReleased;
    }
  }

  RelationId NewScratch(size_t plan, size_t op) {
    const RelationId id = instance_->AcquireScratchRelation();
    op_rel_[plan][op] = id;
    op_scratch_[plan][op] = 1;
    return id;
  }

  void ReleaseDeadColumns(size_t round) {
    for (size_t p = 0; p < plans_.size(); ++p) {
      if (round >= plans_[p].ops.size()) continue;
      for (size_t i = 0; i <= round; ++i) {
        if (op_scratch_[p][i] && last_use_[p][i] <= round) {
          instance_->ReleaseScratchRelation(op_rel_[p][i]);
          op_scratch_[p][i] = 0;
        }
      }
    }
  }

  void ReleaseAll() {
    for (size_t p = 0; p < plans_.size(); ++p) {
      for (size_t i = 0; i < op_rel_[p].size(); ++i) {
        if (op_scratch_[p][i]) {
          instance_->ReleaseScratchRelation(op_rel_[p][i]);
          op_scratch_[p][i] = 0;
        }
      }
    }
  }

  /// Executes round `round` of every plan. Non-axis ops are pure column
  /// ops and run immediately; axis ops are bucketed by axis and each
  /// bucket swept once. Returns false to abort sharing.
  bool RunRound(size_t round) {
    // Buckets keyed by the axis enum value.
    constexpr size_t kAxisKinds =
        static_cast<size_t>(Axis::kPreceding) + 1;
    std::array<std::vector<AxisEntry>, kAxisKinds> buckets;

    for (size_t p = 0; p < plans_.size(); ++p) {
      if (round >= plans_[p].ops.size()) continue;
      const Op& op = plans_[p].ops[round];
      if (op.kind == OpKind::kAxis) {
        AxisEntry entry;
        entry.plan = p;
        entry.op = round;
        entry.src = op_rel_[p][static_cast<size_t>(op.input0)];
        entry.dst = NewScratch(p, round);
        buckets[static_cast<size_t>(op.axis)].push_back(entry);
        continue;
      }
      if (!RunPureOp(p, round)) return false;
    }

    for (size_t a = 0; a < buckets.size(); ++a) {
      std::vector<AxisEntry>& bucket = buckets[a];
      if (bucket.empty()) continue;
      const Axis axis = static_cast<Axis>(a);
      for (size_t begin = 0; begin < bucket.size();
           begin += kMaskWidth) {
        const size_t end = std::min(bucket.size(), begin + kMaskWidth);
        const std::span<const AxisEntry> chunk{bucket.data() + begin,
                                               end - begin};
        if (!RunAxisChunk(axis, chunk)) return false;
      }
    }
    return true;
  }

  /// The non-axis algebra ops. Resolution (existing relations, named
  /// contexts) is handled here; the column arithmetic itself is the
  /// same `ApplyColumnOp` the per-query evaluator runs, so the two
  /// paths cannot diverge.
  bool RunPureOp(size_t p, size_t i) {
    const Op& op = plans_[p].ops[i];
    switch (op.kind) {
      case OpKind::kRelation: {
        const RelationId existing = instance_->FindRelation(op.relation);
        if (existing != kNoRelation) {
          op_rel_[p][i] = existing;
        } else {
          NewScratch(p, i);  // empty selection
        }
        return true;
      }
      case OpKind::kContext: {
        if (!options_.context_relation.empty()) {
          const RelationId ctx =
              instance_->FindRelation(options_.context_relation);
          if (ctx == kNoRelation) return false;  // vanilla path errors
          op_rel_[p][i] = ctx;
          return true;
        }
        break;  // empty context = {root}: column op below
      }
      case OpKind::kAxis:
        return false;  // handled by the caller
      default:
        break;
    }
    const RelationId id = NewScratch(p, i);
    ApplyColumnOp(
        instance_, op,
        op.input0 >= 0 ? op_rel_[p][static_cast<size_t>(op.input0)]
                       : kNoRelation,
        op.input1 >= 0 ? op_rel_[p][static_cast<size_t>(op.input1)]
                       : kNoRelation,
        id);
    return true;
  }

  // --- Shared sweeps -------------------------------------------------------

  /// Per-vertex mask of queries whose `src` selection contains v,
  /// computed once per sweep.
  std::vector<uint64_t> SourceMasks(std::span<const AxisEntry> chunk,
                                    const std::vector<VertexId>& order) {
    std::vector<uint64_t> src_mask(instance_->vertex_count(), 0);
    std::vector<const DynamicBitset*> src_bits;
    src_bits.reserve(chunk.size());
    for (const AxisEntry& e : chunk) {
      src_bits.push_back(&instance_->RelationBits(e.src));
    }
    for (const VertexId v : order) {
      uint64_t m = 0;
      for (size_t q = 0; q < src_bits.size(); ++q) {
        if (src_bits[q]->Test(v)) m |= uint64_t{1} << q;
      }
      src_mask[v] = m;
    }
    return src_mask;
  }

  /// Writes each entry's dst bits from the per-vertex result masks.
  void CommitMasks(std::span<const AxisEntry> chunk,
                   const std::vector<VertexId>& order,
                   const std::vector<uint64_t>& dst_mask) {
    for (const VertexId v : order) {
      uint64_t m = dst_mask[v];
      while (m != 0) {
        const int q = __builtin_ctzll(m);
        instance_->SetBit(chunk[static_cast<size_t>(q)].dst, v);
        m &= m - 1;
      }
    }
  }

  /// Prune gate for one shared sweep: the union over the chunk members
  /// of their abstract source / destination node sets, handed to the
  /// same region construction the per-query pruner uses. Every transfer
  /// and closure is monotone, so the union gate's region contains each
  /// member's per-query region — bit-identical parity per member — and
  /// a skip means *every* member's sweep would select and split nothing.
  /// `stage` is -1 for a plain axis, 0/1/2 for the composed stages.
  PruneGate ChunkGate(SweepKind kind, std::span<const AxisEntry> chunk,
                      int stage) {
    PruneGate gate;
    if (!prune_ready_) return gate;
    const size_t nn = regions_.summary().nodes.size();
    union_src_.Resize(nn, false);
    union_src_.ResetAll();
    union_dst_.Resize(nn, false);
    union_dst_.ResetAll();
    bool sources_live = false;
    for (const AxisEntry& e : chunk) {
      const PlanAbstract& abs = abstracts_[e.plan];
      const Op& op = plans_[e.plan].ops[e.op];
      const size_t input = static_cast<size_t>(op.input0);
      if (stage <= 0) {
        union_src_ |= abs.OpSet(input);
      } else {
        union_src_ |= abs.StageSet(e.op, stage - 1);
      }
      if (stage < 0) {
        union_dst_ |= abs.OpSet(e.op);
      } else {
        union_dst_ |= abs.StageSet(e.op, stage);
      }
      sources_live =
          sources_live || instance_->RelationBits(e.src).Any();
    }
    if (!sources_live) {
      // Every member's concrete source is empty: no sweep of this chunk
      // can select or demand anything (mirrors the evaluator's
      // empty-source skip).
      gate.skip = true;
      return gate;
    }
    return regions_.Gate(kind, union_src_, union_dst_);
  }

  /// Folds one shared sweep's gate into `family`'s counters and returns
  /// where the sweep's kernel time goes (null without stats). The
  /// visits are what the sweep will walk; a full sweep walks every
  /// reachable vertex once regardless of chunk width.
  double* CountSweep(AxisFamily family, const PruneGate& gate,
                     uint64_t reachable) {
    if (stats_ == nullptr) return nullptr;
    AxisFamilyStats& f = stats_->axis[static_cast<size_t>(family)];
    ++f.sweeps;
    f.full += reachable;
    if (gate.skip) {
      ++f.skipped;
    } else if (gate.region != nullptr) {
      ++f.pruned;
      f.visited += gate.region_vertices;
    } else {
      f.visited += reachable;
    }
    return &f.seconds;
  }

  bool RunAxisChunk(Axis axis, std::span<const AxisEntry> chunk) {
    switch (axis) {
      case Axis::kSelf:
        for (const AxisEntry& e : chunk) {
          instance_->MutableRelationBits(e.dst) =
              instance_->RelationBits(e.src);
        }
        return true;
      case Axis::kParent:
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf:
        SharedUpward(axis, chunk);
        return true;
      case Axis::kChild:
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        return SharedDownward(axis, chunk);
      case Axis::kFollowingSibling:
      case Axis::kPrecedingSibling:
        return SharedSibling(axis, chunk);
      case Axis::kFollowing:
      case Axis::kPreceding:
        return SharedComposed(axis, chunk);
    }
    return false;
  }

  /// Sec. 3.2: following = d-o-s ∘ following-sibling ∘ a-o-s (mirrored
  /// for preceding), each stage a shared sweep over the whole chunk.
  bool SharedComposed(Axis axis, std::span<const AxisEntry> chunk) {
    const Axis sibling = axis == Axis::kFollowing
                             ? Axis::kFollowingSibling
                             : Axis::kPrecedingSibling;
    std::vector<AxisEntry> stage(chunk.begin(), chunk.end());
    std::vector<RelationId> mid;
    mid.reserve(2 * chunk.size());
    const auto cleanup = [&] {
      for (const RelationId id : mid) {
        instance_->ReleaseScratchRelation(id);
      }
    };

    for (AxisEntry& e : stage) {  // a-o-s into fresh scratch
      const RelationId up = instance_->AcquireScratchRelation();
      mid.push_back(up);
      e.dst = up;
    }
    SharedUpward(Axis::kAncestorOrSelf, stage, /*stage=*/0);

    for (AxisEntry& e : stage) {  // sibling from the a-o-s columns
      const RelationId side = instance_->AcquireScratchRelation();
      mid.push_back(side);
      e.src = e.dst;
      e.dst = side;
    }
    if (!SharedSibling(sibling, stage, /*stage=*/1)) {
      cleanup();
      return false;
    }

    for (size_t i = 0; i < stage.size(); ++i) {  // d-o-s into final dst
      stage[i].src = stage[i].dst;
      stage[i].dst = chunk[i].dst;
    }
    const bool ok =
        SharedDownward(Axis::kDescendantOrSelf, stage, /*stage=*/2);
    cleanup();
    return ok;
  }

  /// parent / ancestor / ancestor-or-self for the whole chunk in one
  /// children-scan: never splits (Prop. 3.3), so never aborts. The
  /// region is every potential receiver; for the ancestor axes it
  /// contains all intermediate vertices of every selected chain (their
  /// paths are trie-ancestors of admissible source paths), so gating
  /// the scan never severs the child-to-ancestor mask flow.
  void SharedUpward(Axis axis, std::span<const AxisEntry> chunk,
                    int stage = -1) {
    const bool ancestor =
        axis == Axis::kAncestor || axis == Axis::kAncestorOrSelf;
    const TraversalCache& t = instance_->EnsureTraversal();
    const PruneGate gate = ChunkGate(SweepKind::kUpward, chunk, stage);
    ScopedTimer timer(CountSweep(AxisFamily::kUpward, gate, t.order.size()));
    if (gate.skip) return;  // dst scratch columns stay all-zero
    const DynamicBitset* const region = gate.region;
    const std::vector<uint64_t> src_mask = SourceMasks(chunk, t.order);
    std::vector<uint64_t> up_mask(instance_->vertex_count(), 0);

    // Children-first over the cached order covers both axes.
    for (const VertexId v : t.order) {
      if (region != nullptr && !region->Test(v)) continue;
      uint64_t m = 0;
      for (const Edge& e : instance_->Children(v)) {
        m |= src_mask[e.child];
        if (ancestor) m |= up_mask[e.child];
      }
      up_mask[v] = m;
    }

    if (axis == Axis::kAncestorOrSelf) {
      for (const VertexId v : t.order) up_mask[v] |= src_mask[v];
    }
    CommitMasks(chunk, t.order, up_mask);
  }

  /// child / descendant / descendant-or-self: root-first band sweep
  /// accumulating per-query demand masks. A vertex demanded with both
  /// bits by one query (and not folded by or-self) is a split the
  /// per-query kernel would perform — the abort condition.
  bool SharedDownward(Axis axis, std::span<const AxisEntry> chunk,
                      int stage = -1) {
    const bool inherit = axis != Axis::kChild;
    const bool or_self = axis == Axis::kDescendantOrSelf;
    const TraversalCache& t = instance_->EnsureTraversal(true);
    const PruneGate gate = ChunkGate(SweepKind::kDownward, chunk, stage);
    ScopedTimer timer(
        CountSweep(AxisFamily::kDownward, gate, t.order.size()));
    if (gate.skip) return true;  // selects nothing, demands nothing
    const DynamicBitset* const region = gate.region;
    const size_t n = instance_->vertex_count();
    const uint64_t full =
        chunk.size() == kMaskWidth
            ? ~uint64_t{0}
            : (uint64_t{1} << chunk.size()) - 1;
    const std::vector<uint64_t> src_mask = SourceMasks(chunk, t.order);

    // demand1[w] / demand0[w]: queries with an occurrence of w that
    // must be selected / unselected. ORs, hence order-free.
    std::vector<uint64_t> demand1(n, 0);
    std::vector<uint64_t> demand0(n, 0);
    std::vector<uint64_t> dst_mask(n, 0);
    const VertexId root = instance_->root();

    for (size_t h = t.bands.size(); h-- > 0;) {
      for (const VertexId w : t.bands[h]) {
        // Outside the region nothing can be demanded selected: any d1
        // receiver is in V(dst) and every parent of such a receiver is
        // in the trie-parent closure, so all clash-relevant pushes come
        // from region vertices (same argument as the per-query kernel).
        if (region != nullptr && !region->Test(w)) continue;
        uint64_t d1 = demand1[w];
        uint64_t d0 = demand0[w];
        if (w == root) d0 = full;  // the root is entered by no edge
        const uint64_t os = or_self ? src_mask[w] : 0;
        if ((d1 & d0 & ~os) != 0) return false;
        const uint64_t mine = os | d1;
        dst_mask[w] = mine;
        const uint64_t out1 =
            src_mask[w] | (inherit ? mine : uint64_t{0});
        const uint64_t out0 = full & ~out1;
        for (const Edge& e : instance_->Children(w)) {
          demand1[e.child] |= out1;
          demand0[e.child] |= out0;
        }
      }
    }
    CommitMasks(chunk, t.order, dst_mask);
    return true;
  }

  /// following-sibling / preceding-sibling: one demand pass over every
  /// reachable child list. A run straddling a per-query selection
  /// boundary demands both bits of its child — the split the per-query
  /// kernel performs, hence the abort condition. Conflict-free demand
  /// masks ARE the answer: the rewritten lists would equal the
  /// originals run for run.
  bool SharedSibling(Axis axis, std::span<const AxisEntry> chunk,
                     int stage = -1) {
    const bool forward = axis == Axis::kFollowingSibling;
    const TraversalCache& t = instance_->EnsureTraversal();
    const PruneGate gate = ChunkGate(SweepKind::kSibling, chunk, stage);
    ScopedTimer timer(
        CountSweep(AxisFamily::kSibling, gate, t.order.size()));
    if (gate.skip) return true;  // no list can demand a selection
    const DynamicBitset* const region = gate.region;
    const size_t n = instance_->vertex_count();
    const uint64_t full =
        chunk.size() == kMaskWidth
            ? ~uint64_t{0}
            : (uint64_t{1} << chunk.size()) - 1;
    const std::vector<uint64_t> src_mask = SourceMasks(chunk, t.order);

    std::vector<uint64_t> demand1(n, 0);
    std::vector<uint64_t> demand0(n, 0);

    const auto demand_run = [&](VertexId child, uint64_t count,
                                uint64_t seen, uint64_t in_src) {
      // First (forward) / last (backward) occurrence of the run takes
      // the `seen` history; the remaining count-1 follow (precede) a
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
      // The region is the set of sibling lists that can contain a
      // source child or a receiver; any other list's demands are
      // all-zero history over non-source runs — nothing to push.
      if (region != nullptr && !region->Test(v)) continue;
      const std::span<const Edge> runs = instance_->Children(v);
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
    demand0[instance_->root()] |= full;

    // Conflict check + commit in one pass.
    uint64_t clash_total = 0;
    for (const VertexId v : t.order) {
      clash_total |= demand1[v] & demand0[v];
    }
    if (clash_total != 0) return false;
    CommitMasks(chunk, t.order, demand1);
    return true;
  }

  Instance* instance_;
  const EvalOptions& options_;
  const std::vector<algebra::QueryPlan>& plans_;
  EvalStats* stats_;

  std::vector<std::vector<RelationId>> op_rel_;
  std::vector<std::vector<uint8_t>> op_scratch_;  ///< 1 = we own it.
  std::vector<std::vector<size_t>> last_use_;

  /// Sweep pruning (docs/INTERNALS.md §9): one summary binding for the
  /// run, one abstract interpretation per plan, reusable union buffers
  /// for the chunk gates.
  SummaryRegions regions_;
  std::vector<PlanAbstract> abstracts_;
  bool prune_ready_ = false;
  DynamicBitset union_src_;
  DynamicBitset union_dst_;
};

}  // namespace

SharedBatchResult EvaluateBatchShared(
    Instance* instance, const std::vector<algebra::QueryPlan>& plans,
    const EvalOptions& options, EvalStats* stats) {
  Timer timer;
  SharedBatchRunner runner(instance, options, plans, stats);
  SharedBatchResult result = runner.Run();
  if (stats != nullptr) {
    SumAxisFamilies(stats);
    stats->seconds = timer.Seconds();
  }
  return result;
}

}  // namespace xcq::engine
