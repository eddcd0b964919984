#include "xcq/engine/evaluator.h"

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <vector>

#include "xcq/engine/axes.h"
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

/// The one interpreter of compiled plans (Sec. 3.3): "one expression
/// after the other", each selection a scratch column of the instance,
/// returned to the pool at its last use. A span of plans runs in
/// lockstep — round r runs op r of every plan — so one plan is a QUERY
/// and N plans are a shared BATCH, whose same-axis ops of a round are
/// swept together in chunks of up to kMaskLanes (8) lanes. Everything —
/// op resolution, scratch lifetimes, the following/preceding
/// composition, the `//`-from-root closed form, the kernels and the
/// per-family counters — is common to both; the modes differ only in
/// `on_clash`: a QUERY splits, a shared run refuses.
/// A shared run never mutates the DAG (its kernels refuse a clash
/// before writing anything), so any error it returns leaves the
/// instance as it was.
class PlanRunner {
 public:
  PlanRunner(Instance* instance, std::span<const algebra::QueryPlan> plans,
             const EvalOptions& options, EvalStats* stats, OnClash on_clash)
      : instance_(instance),
        plans_(plans),
        options_(options),
        stats_(stats),
        on_clash_(on_clash),
        slots_(plans.size()) {
    for (size_t p = 0; p < plans.size(); ++p) {
      const std::vector<Op>& ops = plans[p].ops;
      std::vector<Slot>& slots = slots_[p];
      slots.resize(ops.size());
      for (size_t i = 0; i < ops.size(); ++i) {
        slots[i].last_use = i;
        for (const int32_t input : {ops[i].input0, ops[i].input1}) {
          if (input >= 0) slots[static_cast<size_t>(input)].last_use = i;
        }
      }
      slots.back().last_use = kPinned;
    }
  }

  PlanRunner(const PlanRunner&) = delete;
  PlanRunner& operator=(const PlanRunner&) = delete;

  /// Scratch columns go back to the resident pool even on error; the
  /// pooled path therefore adds zero schema tombstones per query.
  ~PlanRunner() {
    for (const std::vector<Slot>& slots : slots_) {
      for (const Slot& slot : slots) {
        if (slot.owned) instance_->ReleaseScratchRelation(slot.id);
      }
    }
  }

  Status Run() {
    size_t rounds = 0;
    for (const algebra::QueryPlan& plan : plans_) {
      rounds = std::max(rounds, plan.ops.size());
    }
    for (size_t r = 0; r < rounds; ++r) {
      // Round boundaries are always between mutation phases; the
      // splitting kernels add their own vertex-count/phase checkpoints.
      if (options_.cancel != nullptr) {
        XCQ_RETURN_IF_ERROR(options_.cancel->Check());
      }
      XCQ_RETURN_IF_ERROR(RunRound(r));
    }
    return Status::OK();
  }

  /// Plan p's final selection (after a successful Run) as a scratch
  /// column the caller now owns; a final naming an existing relation is
  /// copied, so the contract is uniform.
  RelationId TakeFinal(size_t p) {
    Slot& slot = slots_[p].back();
    if (slot.owned) {
      slot.owned = false;
      return slot.id;
    }
    const RelationId copy = instance_->AcquireScratchRelation();
    instance_->MutableRelationBits(copy) = instance_->RelationBits(slot.id);
    return copy;
  }

 private:
  static constexpr size_t kPinned = std::numeric_limits<size_t>::max();
  static constexpr size_t kAxisCount =
      static_cast<size_t>(Axis::kPreceding) + 1;

  /// The column behind one op's selection.
  struct Slot {
    RelationId id = kNoRelation;
    size_t last_use = 0;  ///< Round of the last reader; kPinned = final.
    bool owned = false;   ///< A scratch column this run checked out.
  };

  /// Checks out the zeroed scratch column backing op i of plan p:
  /// anonymous, from the instance's resident pool, returned at its last
  /// use (the paper's note that intermediate selections "can be removed
  /// from an instance"), no schema churn.
  RelationId Acquire(size_t p, size_t i) {
    Slot& slot = slots_[p][i];
    slot.id = instance_->AcquireScratchRelation();
    slot.owned = true;
    return slot.id;
  }

  RelationId Input(size_t p, int32_t input) const {
    return input >= 0 ? slots_[p][static_cast<size_t>(input)].id
                      : kNoRelation;
  }

  /// Runs op r of every plan: column ops at once, axis ops bucketed by
  /// axis and swept once per chunk; then returns every scratch column
  /// whose last reader was this round.
  Status RunRound(size_t r) {
    for (std::vector<SweepLane>& bucket : buckets_) bucket.clear();
    for (size_t p = 0; p < plans_.size(); ++p) {
      if (r >= plans_[p].ops.size()) continue;
      const Op& op = plans_[p].ops[r];
      if (op.kind != OpKind::kAxis) {
        XCQ_RETURN_IF_ERROR(RunColumnOp(p, r));
        continue;
      }
      const RelationId src = Input(p, op.input0);
      buckets_[static_cast<size_t>(op.axis)].push_back(
          SweepLane{p, r, src, Acquire(p, r)});
    }
    for (size_t a = 0; a < kAxisCount; ++a) {
      const std::vector<SweepLane>& bucket = buckets_[a];
      for (size_t begin = 0; begin < bucket.size(); begin += kMaskLanes) {
        const size_t width = std::min(kMaskLanes, bucket.size() - begin);
        XCQ_RETURN_IF_ERROR(
            RunAxis(static_cast<Axis>(a), {bucket.data() + begin, width}));
      }
    }
    for (size_t p = 0; p < plans_.size(); ++p) {
      if (r >= plans_[p].ops.size()) continue;
      const Op& op = plans_[p].ops[r];
      for (const int32_t i : {op.input0, op.input1, static_cast<int32_t>(r)}) {
        if (i < 0) continue;
        Slot& slot = slots_[p][static_cast<size_t>(i)];
        if (slot.owned && slot.last_use == r) {
          instance_->ReleaseScratchRelation(slot.id);
          slot.owned = false;
        }
      }
    }
    return Status::OK();
  }

  /// Every op but kAxis: relation and context resolution, and the
  /// column arithmetic of the rest into a fresh scratch column.
  Status RunColumnOp(size_t p, size_t i) {
    const Op& op = plans_[p].ops[i];
    if (op.kind == OpKind::kRelation) {
      slots_[p][i].id = instance_->FindRelation(op.relation);
      // A tag that never occurs (or was not tracked) denotes the empty
      // set; materialize it as an empty scratch column.
      if (slots_[p][i].id == kNoRelation) Acquire(p, i);
      return Status::OK();
    }
    if (op.kind == OpKind::kContext && !options_.context_relation.empty()) {
      const RelationId ctx =
          instance_->FindRelation(options_.context_relation);
      if (ctx == kNoRelation) {
        return Status::NotFound(
            StrFormat("context relation '%s' not present in instance",
                      options_.context_relation.c_str()));
      }
      slots_[p][i].id = ctx;
      return Status::OK();
    }
    const RelationId dst = Acquire(p, i);
    switch (op.kind) {
      case OpKind::kRoot:
      case OpKind::kContext:  // empty context = {root}
        instance_->SetBit(dst, instance_->root());
        break;
      case OpKind::kAllNodes:
        instance_->MutableRelationBits(dst).SetAll();
        break;
      case OpKind::kUnion:
      case OpKind::kIntersect:
      case OpKind::kDifference: {
        DynamicBitset& out = instance_->MutableRelationBits(dst);
        out = instance_->RelationBits(Input(p, op.input0));
        const DynamicBitset& rhs = instance_->RelationBits(Input(p, op.input1));
        if (op.kind == OpKind::kUnion) {
          out |= rhs;
        } else if (op.kind == OpKind::kIntersect) {
          out &= rhs;
        } else {
          out -= rhs;
        }
        break;
      }
      case OpKind::kRootFilter:
        if (instance_->Test(Input(p, op.input0), instance_->root())) {
          instance_->MutableRelationBits(dst).SetAll();
        }
        break;
      case OpKind::kRelation:
      case OpKind::kAxis:
        return Status::Internal("RunColumnOp: not a column op");
    }
    return Status::OK();
  }

  Status RunAxis(Axis axis, std::span<const SweepLane> lanes) {
    switch (axis) {
      case Axis::kSelf:
        // A plain column copy — not counted as a sweep.
        return SweepUpward(instance_, axis, lanes);
      case Axis::kFollowing:
      case Axis::kPreceding:
        return RunComposed(axis, lanes);
      default:
        return Sweep(axis, lanes);
    }
  }

  /// Sec. 3.2: following = d-o-s ∘ following-sibling ∘ a-o-s (mirrored
  /// for preceding), three sweeps of the same lanes; the two
  /// intermediate columns per lane go back to the pool when the op ends.
  Status RunComposed(Axis axis, std::span<const SweepLane> lanes) {
    const Axis stages[3] = {Axis::kAncestorOrSelf,
                            axis == Axis::kFollowing
                                ? Axis::kFollowingSibling
                                : Axis::kPrecedingSibling,
                            Axis::kDescendantOrSelf};
    std::vector<SweepLane> stage(lanes.begin(), lanes.end());
    std::vector<RelationId> held;
    Status status;
    for (int s = 0; s < 3 && status.ok(); ++s) {
      for (size_t k = 0; k < stage.size(); ++k) {
        if (s > 0) stage[k].src = stage[k].dst;
        stage[k].dst = s < 2 ? held.emplace_back(
                                   instance_->AcquireScratchRelation())
                             : lanes[k].dst;
      }
      status = Sweep(stages[s], stage);
    }
    for (const RelationId id : held) instance_->ReleaseScratchRelation(id);
    return status;
  }

  /// `//` from the document root admits a closed form: every reachable
  /// vertex has the root above it, so descendant(-or-self) from {root}
  /// selects the whole reachable set (minus the root itself for the
  /// proper-descendant axis), no demand can clash, and no sweep is
  /// needed. This removes the first full sweep of the paper's `//tag`
  /// navigation shape. It applies when every lane starts at {root};
  /// engine_axes_test checks it against the downward kernel.
  bool ClosedForm(Axis axis, std::span<const SweepLane> lanes) {
    if (axis != Axis::kDescendant && axis != Axis::kDescendantOrSelf) {
      return false;
    }
    const VertexId root = instance_->root();
    for (const SweepLane& lane : lanes) {
      const DynamicBitset& source = instance_->RelationBits(lane.src);
      if (root >= source.size() || !source.Test(root) ||
          source.Count() != 1) {
        return false;
      }
    }
    for (const VertexId v : instance_->EnsureTraversal().order) {
      if (axis == Axis::kDescendant && v == root) continue;
      for (const SweepLane& lane : lanes) instance_->SetBit(lane.dst, v);
    }
    return true;
  }

  /// One concrete sweep of `lanes`: the closed form where it applies,
  /// else the kernel of the axis family.
  Status Sweep(Axis axis, std::span<const SweepLane> lanes) {
    const AxisFamily family = FamilyOf(axis);
    AxisFamilyStats* counters =
        stats_ != nullptr ? &stats_->axis[static_cast<size_t>(family)]
                          : nullptr;
    if (counters != nullptr) ++counters->sweeps;
    if (ClosedForm(axis, lanes)) {
      if (counters != nullptr) {
        ++counters->pruned;
        counters->full += instance_->ReachableCount();
      }
      return Status::OK();
    }
    const uint64_t reachable =
        counters != nullptr ? instance_->ReachableCount() : 0;
    AxisStats kernel;
    Status status;
    {
      ScopedTimer timer(counters != nullptr ? &counters->seconds : nullptr);
      status = Dispatch(axis, lanes, &kernel);
    }
    if (counters != nullptr) {
      stats_->splits += kernel.splits;
      counters->visited += kernel.visited;
      // Kernels count clones created mid-sweep as visits.
      counters->full += reachable + kernel.splits;
    }
    return status;
  }

  /// The kernel of the axis family (engine/axes.h), with the run's
  /// clash policy and cancel token.
  Status Dispatch(Axis axis, std::span<const SweepLane> lanes,
                  AxisStats* kernel) {
    switch (FamilyOf(axis)) {
      case AxisFamily::kDownward:
        return SweepDownward(instance_, axis, lanes, on_clash_, kernel,
                             options_.cancel);
      case AxisFamily::kUpward:
        return SweepUpward(instance_, axis, lanes, kernel, options_.cancel);
      case AxisFamily::kSibling:
        return SweepSibling(instance_, axis, lanes, on_clash_, kernel,
                            options_.cancel);
    }
    return Status::Internal("Dispatch: unknown axis family");
  }

  Instance* instance_;
  std::span<const algebra::QueryPlan> plans_;
  const EvalOptions& options_;
  EvalStats* stats_;
  const OnClash on_clash_;
  std::vector<std::vector<Slot>> slots_;  ///< [plan][op]
  /// One round's axis lanes, by axis (reused across rounds).
  std::array<std::vector<SweepLane>, kAxisCount> buckets_;
};

/// The inputs every run needs: an instance with a root, non-empty plans.
Status CheckRunnable(const Instance* instance,
                     std::span<const algebra::QueryPlan> plans) {
  if (instance == nullptr) {
    return Status::InvalidArgument("Evaluate: instance is null");
  }
  for (const algebra::QueryPlan& plan : plans) {
    if (plan.ops.empty()) {
      return Status::InvalidArgument("Evaluate: empty plan");
    }
  }
  if (instance->vertex_count() == 0 || instance->root() == kNoVertex) {
    return Status::InvalidArgument("Evaluate: empty instance");
  }
  return Status::OK();
}

}  // namespace

void SumAxisFamilies(EvalStats* stats) {
  stats->sweep_visited = stats->sweep_full = 0;
  for (const AxisFamilyStats& family : stats->axis) {
    stats->sweep_visited += family.visited;
    stats->sweep_full += family.full;
  }
}

Result<RelationId> Evaluate(Instance* instance,
                            const algebra::QueryPlan& plan,
                            const EvalOptions& options, EvalStats* stats) {
  XCQ_RETURN_IF_ERROR(CheckRunnable(instance, {&plan, 1}));
  Timer timer;
  if (stats != nullptr) {
    ReachableSizes(*instance, &stats->vertices_before,
                   &stats->edges_before);
  }
  PlanRunner runner(instance, {&plan, 1}, options, stats, OnClash::kSplit);
  XCQ_RETURN_IF_ERROR(runner.Run());
  // Persist the final selection under the public result name. The
  // relation is reused (not removed and re-interned) so its id stays
  // stable across queries: the schema gains no tombstone per query and
  // the session can compare the column with the previous query's.
  const RelationId selection = runner.TakeFinal(0);
  const RelationId result = instance->AddRelation(kResultRelation);
  instance->MutableRelationBits(result) = instance->RelationBits(selection);
  instance->ReleaseScratchRelation(selection);
  if (stats != nullptr) {
    SumAxisFamilies(stats);
    ReachableSizes(*instance, &stats->vertices_after, &stats->edges_after);
    stats->seconds = timer.Seconds();
  }
  return result;
}

Result<std::vector<RelationId>> EvaluateBatchShared(
    Instance* instance, const std::vector<algebra::QueryPlan>& plans,
    const EvalOptions& options, EvalStats* stats) {
  XCQ_RETURN_IF_ERROR(CheckRunnable(instance, plans));
  Timer timer;
  PlanRunner runner(instance, plans, options, stats, OnClash::kRefuse);
  XCQ_RETURN_IF_ERROR(runner.Run());
  std::vector<RelationId> results;
  results.reserve(plans.size());
  for (size_t p = 0; p < plans.size(); ++p) {
    results.push_back(runner.TakeFinal(p));
  }
  if (stats != nullptr) {
    SumAxisFamilies(stats);
    stats->seconds = timer.Seconds();
  }
  return results;
}

}  // namespace xcq::engine
