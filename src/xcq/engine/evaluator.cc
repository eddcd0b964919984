#include "xcq/engine/evaluator.h"

#include <optional>
#include <vector>

#include "xcq/engine/axes.h"
#include "xcq/engine/prune.h"
#include "xcq/util/string_util.h"
#include "xcq/util/timer.h"

namespace xcq::engine {

namespace {

using algebra::Op;
using algebra::OpKind;
using xpath::Axis;

/// Reachable vertex / RLE-edge counts (split leftovers excluded);
/// served from the traversal cache, so on an unchanged instance this is
/// a pure read instead of a walk.
void ReachableSizes(const Instance& instance, uint64_t* vertices,
                    uint64_t* edges) {
  const TraversalCache& t = instance.EnsureTraversal();
  *vertices = t.order.size();
  *edges = t.reachable_edges;
}

class PlanRunner {
 public:
  PlanRunner(Instance* instance, const EvalOptions& options,
             EvalStats* stats)
      : instance_(instance),
        options_(options),
        stats_(stats),
        guard_(options.cancel, options.max_sweep_visits,
               options.max_split_growth) {}

  Result<RelationId> Run(const algebra::QueryPlan& plan) {
    op_relation_.assign(plan.ops.size(), kNoRelation);
    // Poll before the first gate: a bind may build the path summary (a
    // full-DAG walk), so a dead request skips it entirely.
    XCQ_RETURN_IF_ERROR(guard_.Poll());
    if (options_.prune_sweeps) pruner_.emplace(instance_, &plan, &options_);
    const Status status = [&] {
      for (size_t i = 0; i < plan.ops.size(); ++i) {
        // Op boundaries are always between mutation phases; the
        // kernels add their own band/phase-granular checkpoints.
        XCQ_RETURN_IF_ERROR(guard_.Poll());
        XCQ_RETURN_IF_ERROR(RunOp(plan, i));
      }
      return Status::OK();
    }();

    RelationId result = kNoRelation;
    if (status.ok()) {
      // Persist the final selection under the public result name. The
      // relation is reused (not removed and re-interned) so its id stays
      // stable across queries: the schema gains no tombstone per query
      // and the incremental-minimization cache can diff the result
      // column.
      result = instance_->AddRelation(kResultRelation);
      if (result != op_relation_.back()) {
        instance_->MutableRelationBits(result) =
            instance_->RelationBits(op_relation_.back());
      }
    }

    // Scratch columns go back to the resident pool even on error; the
    // pooled path therefore adds zero schema tombstones per query.
    for (const RelationId id : scratch_) {
      instance_->ReleaseScratchRelation(id);
    }
    XCQ_RETURN_IF_ERROR(status);
    return result;
  }

  /// Path-summary size at the pruner's last binding (0 = pruning off
  /// or unavailable).
  uint64_t summary_nodes() const {
    return pruner_.has_value() ? pruner_->summary_nodes() : 0;
  }

 private:
  /// Checks out the temporary relation backing one op's node set: a
  /// zeroed column from the instance's resident scratch pool —
  /// anonymous, returned after the run (the paper's note that
  /// intermediate selections "can be removed from an instance"), no
  /// schema churn.
  RelationId NewTemporary() {
    const RelationId id = instance_->AcquireScratchRelation();
    scratch_.push_back(id);
    return id;
  }

  Status RunOp(const algebra::QueryPlan& plan, size_t i) {
    const Op& op = plan.ops[i];
    switch (op.kind) {
      case OpKind::kRelation: {
        const RelationId existing = instance_->FindRelation(op.relation);
        if (existing != kNoRelation) {
          op_relation_[i] = existing;
          return Status::OK();
        }
        // A tag that never occurs (or was not tracked) denotes the empty
        // set; materialize it as an empty temporary.
        op_relation_[i] = NewTemporary();
        return Status::OK();
      }
      case OpKind::kContext: {
        if (!options_.context_relation.empty()) {
          const RelationId ctx =
              instance_->FindRelation(options_.context_relation);
          if (ctx == kNoRelation) {
            return Status::NotFound(
                StrFormat("context relation '%s' not present in instance",
                          options_.context_relation.c_str()));
          }
          op_relation_[i] = ctx;
          return Status::OK();
        }
        // Empty context means {root} — fall through to the column ops.
        [[fallthrough]];
      }
      case OpKind::kRoot:
      case OpKind::kAllNodes:
      case OpKind::kUnion:
      case OpKind::kIntersect:
      case OpKind::kDifference:
      case OpKind::kRootFilter: {
        const RelationId id = NewTemporary();
        ApplyColumnOp(instance_, op,
                      op.input0 >= 0 ? op_relation_[op.input0] : kNoRelation,
                      op.input1 >= 0 ? op_relation_[op.input1] : kNoRelation,
                      id);
        op_relation_[i] = id;
        return Status::OK();
      }
      case OpKind::kAxis: {
        XCQ_ASSIGN_OR_RETURN(op_relation_[i], RunAxis(plan, i));
        return Status::OK();
      }
    }
    return Status::Internal("unreachable op kind");
  }

  static AxisFamily FamilyOf(Axis axis) {
    switch (axis) {
      case Axis::kChild:
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        return AxisFamily::kDownward;
      case Axis::kFollowingSibling:
      case Axis::kPrecedingSibling:
        return AxisFamily::kSibling;
      default:
        return AxisFamily::kUpward;
    }
  }

  /// One concrete sweep of op `i` with its prune gate: `stage` is -1
  /// for the op's own axis, 0/1/2 for the staged following/preceding
  /// composition. A skipped sweep leaves `d` all-zero — exactly the
  /// unpruned outcome when the admissible region or the concrete source
  /// is empty (such a sweep selects nothing and never splits).
  Status Sweep(size_t i, int stage, Axis axis, RelationId s, RelationId d) {
    AxisFamilyStats* family =
        stats_ != nullptr
            ? &stats_->axis[static_cast<size_t>(FamilyOf(axis))]
            : nullptr;
    if (family != nullptr) ++family->sweeps;
    // `//` from the document root admits a closed form: every reachable
    // vertex has the root above it, so descendant(-or-self) from {root}
    // selects the whole reachable set (minus the root itself for the
    // proper-descendant axis), no demand can clash, and no sweep is
    // needed. This removes the one inherently unprunable sweep from the
    // paper's `//tag` navigation shape. Gated on prune_sweeps: the
    // unpruned reference runs the real kernels for every axis, so the
    // tests that compare against it also cover this closed form.
    if (options_.prune_sweeps &&
        (axis == Axis::kDescendant || axis == Axis::kDescendantOrSelf)) {
      const VertexId root = instance_->root();
      const DynamicBitset& source = instance_->RelationBits(s);
      if (root != kNoVertex && root < source.size() &&
          source.Test(root) && source.Count() == 1) {
        for (const VertexId v : instance_->EnsureTraversal().order) {
          if (axis == Axis::kDescendant && v == root) continue;
          instance_->SetBit(d, v);
        }
        if (family != nullptr) {
          ++family->pruned;
          family->full += instance_->ReachableCount();
        }
        return Status::OK();
      }
    }
    PruneGate gate;
    if (pruner_.has_value()) {
      // The gate is where pruning costs: binding (summary build, abstract
      // pass) on first use and a region build per sweep.
      ScopedTimer bind(stats_ != nullptr ? &stats_->prune_bind_seconds
                                         : nullptr);
      gate = stage < 0 ? pruner_->AxisGate(i) : pruner_->StageGate(i, stage);
      if (!gate.skip && pruner_->active() &&
          instance_->RelationBits(s).None()) {
        gate = PruneGate{};
        gate.skip = true;
      }
    }
    const uint64_t reachable_before =
        family != nullptr ? instance_->ReachableCount() : 0;
    if (family != nullptr) {
      if (gate.skip) ++family->skipped;
      if (gate.region != nullptr) ++family->pruned;
    }
    if (gate.skip) {
      if (family != nullptr) family->full += reachable_before;
      return Status::OK();
    }

    AxisStats sweep_stats;
    Status status;
    {
      ScopedTimer kernel_timer(family != nullptr ? &family->seconds
                                                 : nullptr);
      switch (axis) {
        case Axis::kParent:
        case Axis::kAncestor:
        case Axis::kAncestorOrSelf:
          status = ApplyUpwardAxis(instance_, axis, s, d, &sweep_stats,
                                   gate.region, &guard_);
          break;
        case Axis::kChild:
        case Axis::kDescendant:
        case Axis::kDescendantOrSelf:
          status = ApplyDownwardAxis(instance_, axis, s, d, &sweep_stats,
                                     gate.region, &guard_);
          break;
        case Axis::kFollowingSibling:
        case Axis::kPrecedingSibling:
          status = ApplySiblingAxis(instance_, axis, s, d, &sweep_stats,
                                    gate.region, &guard_);
          break;
        default:
          status = Status::Internal("Sweep: unexpected axis");
          break;
      }
    }
    if (family != nullptr) {
      stats_->splits += sweep_stats.splits;
      family->visited += sweep_stats.visited;
      // Kernels count clones created mid-sweep as visits, and a pruned
      // run splits exactly where the full run would — so the full-sweep
      // visit count is the pre-sweep reachable set plus those clones.
      family->full += reachable_before + sweep_stats.splits;
    }
    return status;
  }

  Result<RelationId> RunAxis(const algebra::QueryPlan& plan, size_t i) {
    const Axis axis = plan.ops[i].axis;
    const RelationId src = op_relation_[plan.ops[i].input0];
    RelationId dst = kNoRelation;
    switch (axis) {
      case Axis::kSelf:
        // A plain column copy — nothing to prune.
        dst = NewTemporary();
        XCQ_RETURN_IF_ERROR(ApplyUpwardAxis(instance_, axis, src, dst));
        break;
      case Axis::kParent:
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf:
      case Axis::kChild:
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
      case Axis::kFollowingSibling:
      case Axis::kPrecedingSibling:
        dst = NewTemporary();
        XCQ_RETURN_IF_ERROR(Sweep(i, -1, axis, src, dst));
        break;
      case Axis::kFollowing:
      case Axis::kPreceding: {
        // Sec. 3.2: following = d-o-s ∘ following-sibling ∘ a-o-s (and
        // mirrored for preceding), each stage gated separately.
        const Axis sibling = axis == Axis::kFollowing
                                 ? Axis::kFollowingSibling
                                 : Axis::kPrecedingSibling;
        const RelationId up = NewTemporary();
        XCQ_RETURN_IF_ERROR(Sweep(i, 0, Axis::kAncestorOrSelf, src, up));
        const RelationId side = NewTemporary();
        XCQ_RETURN_IF_ERROR(Sweep(i, 1, sibling, up, side));
        dst = NewTemporary();
        XCQ_RETURN_IF_ERROR(Sweep(i, 2, Axis::kDescendantOrSelf, side,
                                  dst));
        break;
      }
    }
    return dst;
  }

  Instance* instance_;
  const EvalOptions& options_;
  EvalStats* stats_;
  EvalGuard guard_;
  std::optional<PlanPruner> pruner_;
  std::vector<RelationId> op_relation_;
  /// Scratch columns checked out for this run (released in Run()).
  std::vector<RelationId> scratch_;
};

}  // namespace

void SumAxisFamilies(EvalStats* stats) {
  stats->sweep_visited = stats->sweep_full = 0;
  stats->pruned_sweeps = stats->skipped_sweeps = 0;
  for (const AxisFamilyStats& family : stats->axis) {
    stats->sweep_visited += family.visited;
    stats->sweep_full += family.full;
    stats->pruned_sweeps += family.pruned;
    stats->skipped_sweeps += family.skipped;
  }
}

void ApplyColumnOp(Instance* instance, const algebra::Op& op,
                   RelationId input0, RelationId input1, RelationId dst) {
  switch (op.kind) {
    case OpKind::kRoot:
    case OpKind::kContext:  // callers resolve named contexts; empty = {root}
      instance->SetBit(dst, instance->root());
      return;
    case OpKind::kAllNodes:
      instance->MutableRelationBits(dst).SetAll();
      return;
    case OpKind::kUnion:
    case OpKind::kIntersect:
    case OpKind::kDifference: {
      DynamicBitset& out = instance->MutableRelationBits(dst);
      out = instance->RelationBits(input0);
      const DynamicBitset& rhs = instance->RelationBits(input1);
      if (op.kind == OpKind::kUnion) {
        out |= rhs;
      } else if (op.kind == OpKind::kIntersect) {
        out &= rhs;
      } else {
        out -= rhs;
      }
      return;
    }
    case OpKind::kRootFilter:
      if (instance->Test(input0, instance->root())) {
        instance->MutableRelationBits(dst).SetAll();
      }
      return;
    case OpKind::kRelation:
    case OpKind::kAxis:
      return;  // resolution / sweeps, not column arithmetic
  }
}

Result<RelationId> Evaluate(Instance* instance,
                            const algebra::QueryPlan& plan,
                            const EvalOptions& options, EvalStats* stats) {
  if (instance == nullptr) {
    return Status::InvalidArgument("Evaluate: instance is null");
  }
  if (plan.ops.empty()) {
    return Status::InvalidArgument("Evaluate: empty plan");
  }
  if (instance->vertex_count() == 0 || instance->root() == kNoVertex) {
    return Status::InvalidArgument("Evaluate: empty instance");
  }
  Timer timer;
  const uint64_t summary_builds_before = instance->path_summary_builds();
  if (stats != nullptr) {
    ReachableSizes(*instance, &stats->vertices_before,
                   &stats->edges_before);
  }
  PlanRunner runner(instance, options, stats);
  XCQ_ASSIGN_OR_RETURN(const RelationId result, runner.Run(plan));
  if (stats != nullptr) {
    SumAxisFamilies(stats);
    ReachableSizes(*instance, &stats->vertices_after, &stats->edges_after);
    stats->summary_nodes = runner.summary_nodes();
    stats->summary_builds =
        instance->path_summary_builds() - summary_builds_before;
    stats->seconds = timer.Seconds();
  }
  return result;
}

}  // namespace xcq::engine
