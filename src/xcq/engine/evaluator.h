#ifndef XCQ_ENGINE_EVALUATOR_H_
#define XCQ_ENGINE_EVALUATOR_H_

/// \file evaluator.h
/// Query evaluation on compressed instances (Sec. 3.3).
///
/// The evaluator interprets a compiled `QueryPlan` op by op, adding each
/// intermediate node set as a (temporary) relation of the instance —
/// exactly the paper's evaluation mode: "we process one expression after
/// the other, always adding the resulting selection to the resulting
/// instance for future use (and possibly partial decompression)". Vertex
/// splits automatically keep every earlier selection consistent because
/// selections are relation columns and splits copy them.
///
/// Guarantees carried over from the paper:
///  * upward-only plans never change the DAG (Cor. 3.7),
///  * each splitting axis at most doubles vertices and edges, so a plan
///    with k splitting axes grows the instance at most 2^k-fold
///    (Thm. 3.6) — and never beyond |T(I)|.

#include <string>
#include <string_view>
#include <vector>

#include "xcq/algebra/op.h"
#include "xcq/instance/instance.h"
#include "xcq/util/cancel.h"
#include "xcq/util/result.h"

namespace xcq::engine {

/// \brief Name of the relation holding the final query result.
inline constexpr std::string_view kResultRelation = "xcq:result";

struct EvalOptions {
  /// Relation holding the query context (the paper's user-defined initial
  /// selection); empty means {root}.
  std::string context_relation;
  /// Cooperative cancellation (docs/INTERNALS.md §10). Polled between
  /// ops and between kernel mutation phases; a tripped token aborts the
  /// evaluation with `kCancelled` / `kDeadlineExceeded`, leaving the
  /// instance representing the same tree. Borrowed; may be null.
  const CancelToken* cancel = nullptr;
  /// Per-evaluation work budgets; 0 = unlimited. When the cumulative
  /// vertices visited (resp. vertices cloned) by this evaluation's
  /// sweeps exceeds the cap, the evaluation aborts with a clean
  /// `kResourceExhausted` at the next checkpoint.
  uint64_t max_sweep_visits = 0;
  uint64_t max_split_growth = 0;
};

/// \brief The three sweep-kernel families, the `axis=` label of the
/// engine's exported metrics (docs/OBSERVABILITY.md).
enum class AxisFamily : uint8_t {
  kDownward = 0,  ///< child / descendant / descendant-or-self.
  kUpward = 1,    ///< parent / ancestor / ancestor-or-self / self.
  kSibling = 2,   ///< following- / preceding-sibling.
};
inline constexpr size_t kAxisFamilyCount = 3;

/// The kernel family that sweeps `axis`, and so the slice of the
/// per-family counters it is tallied in. kSelf (a column copy, never
/// swept) maps to kUpward; kFollowing/kPreceding are three staged
/// sweeps and are never passed here.
constexpr AxisFamily FamilyOf(xpath::Axis axis) {
  switch (axis) {
    case xpath::Axis::kChild:
    case xpath::Axis::kDescendant:
    case xpath::Axis::kDescendantOrSelf:
      return AxisFamily::kDownward;
    case xpath::Axis::kFollowingSibling:
    case xpath::Axis::kPrecedingSibling:
      return AxisFamily::kSibling;
    default:
      return AxisFamily::kUpward;
  }
}

/// Stable lower-case family name ("downward" / "upward" / "sibling").
constexpr std::string_view AxisFamilyName(AxisFamily family) {
  switch (family) {
    case AxisFamily::kDownward:
      return "downward";
    case AxisFamily::kUpward:
      return "upward";
    case AxisFamily::kSibling:
      return "sibling";
  }
  return "unknown";
}

/// \brief Per-family slice of the sweep counters — the one place a sweep
/// counter is defined. The engine increments only these slices (per-query
/// and shared-batch sweeps alike); `EvalStats::sweep_visited` and
/// `sweep_full` are sums, filled at the end of an evaluation. `seconds`
/// is time inside the family's kernels (excluded: plan bookkeeping,
/// column ops).
struct AxisFamilyStats {
  uint64_t sweeps = 0;        ///< Sweeps of this family (incl. closed forms).
  uint64_t visited = 0;       ///< Vertices the family's sweeps visited.
  /// Visits the kernels would make; exceeds `visited` by the reachable
  /// set of every closed form.
  uint64_t full = 0;
  /// Sweeps answered by the `//`-from-root closed form (no kernel run);
  /// named after the frozen `pruned=` STATS key it renders as.
  uint64_t pruned = 0;
  double seconds = 0.0;       ///< Time inside the kernels.
};

struct EvalStats {
  uint64_t vertices_before = 0;
  uint64_t vertices_after = 0;   ///< Reachable vertices after the query.
  uint64_t edges_before = 0;     ///< RLE edges (reachable) before.
  uint64_t edges_after = 0;      ///< RLE edges (reachable) after.
  uint64_t splits = 0;           ///< Vertices cloned during evaluation.
  /// Σ axis[].visited and Σ axis[].full. Kept as aggregates only because
  /// servebench/traced_run.cc reads them, so removing them is a change
  /// to the benchmark; new readers sum `axis[]`.
  uint64_t sweep_visited = 0;
  uint64_t sweep_full = 0;
  /// Per-family counter slices, indexed by AxisFamily; inline array so
  /// collecting stats still allocates nothing on the hot path.
  AxisFamilyStats axis[kAxisFamilyCount];
  /// Always 0: no sweep has a prune gate to time. Kept because
  /// servebench/traced_run.cc reads it (its `prune_bind_share`), so
  /// removing it is a change to the benchmark.
  double prune_bind_seconds = 0.0;
  double seconds = 0.0;
};

/// \brief Fills `sweep_visited` and `sweep_full` of `*stats` by summing
/// its family slices; both entry points below call it once, at the end
/// of an evaluation.
void SumAxisFamilies(EvalStats* stats);

/// \brief Evaluates `plan` on `*instance` (mutating it: the result is
/// added, intermediate selections live in scratch columns returned at
/// their last use; splitting axes may partially decompress). Returns the
/// id of the result relation (`kResultRelation`).
Result<RelationId> Evaluate(Instance* instance,
                            const algebra::QueryPlan& plan,
                            const EvalOptions& options = {},
                            EvalStats* stats = nullptr);

/// \brief Result of a shared-batch attempt. When `engaged`, `results`
/// holds one *scratch* relation per plan (index-aligned) carrying that
/// query's final selection; the caller must copy/count what it needs
/// and return each id via `Instance::ReleaseScratchRelation`. When not
/// engaged the instance is unchanged and `results` is empty.
struct SharedBatchResult {
  bool engaged = false;
  std::vector<RelationId> results;
};

/// \brief Attempts to evaluate `plans` with shared sweeps (docs/SERVER.md
/// BATCH, docs/INTERNALS.md §8.3): the same interpreter as `Evaluate`
/// runs the plans in lockstep, and each round's same-axis ops share one
/// mask sweep of engine/batch.h per chunk of up to 64 queries.
///
/// The sharing is *optimistic*: it is only correct while no op mutates
/// the DAG, because per-query evaluation orders mutations (splits)
/// between queries and lockstep does not. The mask kernels abort on a
/// *clash* — a vertex one query demands both selected and unselected,
/// exactly a split the per-query kernel would perform — before writing
/// anything. Never fails: a clash, a missing context relation, a work
/// budget (budgets are per query) or a tripped cancel reports
/// `engaged = false` with the instance untouched, so the caller can
/// fall back to per-query evaluation, which also surfaces any real
/// error. Answers from an engaged run are bit-identical to per-query
/// evaluation; a warmed instance (split fixpoint reached) never clashes.
/// `stats` receives the batch-wide sweep counters (one sweep per chunk)
/// and `seconds`.
SharedBatchResult EvaluateBatchShared(
    Instance* instance, const std::vector<algebra::QueryPlan>& plans,
    const EvalOptions& options, EvalStats* stats = nullptr);

}  // namespace xcq::engine

#endif  // XCQ_ENGINE_EVALUATOR_H_
