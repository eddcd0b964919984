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
  /// Restrict axis sweeps to the vertices whose path-summary paths can
  /// contribute (docs/INTERNALS.md §9). Answers, splits, and the
  /// resulting instance are independent of the value; `false` sweeps
  /// the whole reachable DAG with the unrestricted kernels.
  bool prune_sweeps = true;
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
/// and shared-batch sweeps alike); the aggregate EvalStats fields of the
/// same name are their sums, filled at the end of an evaluation.
/// `seconds` is time inside the family's kernels (excluded: plan
/// bookkeeping, prune binding, column ops).
struct AxisFamilyStats {
  uint64_t sweeps = 0;        ///< Sweeps of this family (incl. closed forms).
  uint64_t visited = 0;       ///< Vertices the family's sweeps visited.
  uint64_t full = 0;          ///< Visits unpruned sweeps would make.
  uint64_t pruned = 0;        ///< Sweeps restricted to a summary region.
  uint64_t skipped = 0;       ///< Sweeps skipped outright (∅ region).
  double seconds = 0.0;       ///< Time inside the kernels.
};

struct EvalStats {
  uint64_t vertices_before = 0;
  uint64_t vertices_after = 0;   ///< Reachable vertices after the query.
  uint64_t edges_before = 0;     ///< RLE edges (reachable) before.
  uint64_t edges_after = 0;      ///< RLE edges (reachable) after.
  uint64_t splits = 0;           ///< Vertices cloned during evaluation.
  uint64_t sweep_visited = 0;    ///< Σ axis[].visited.
  uint64_t sweep_full = 0;       ///< Σ axis[].full.
  uint64_t pruned_sweeps = 0;    ///< Σ axis[].pruned.
  uint64_t skipped_sweeps = 0;   ///< Σ axis[].skipped.
  uint64_t summary_nodes = 0;    ///< Path-summary size used (0 = none).
  uint64_t summary_builds = 0;   ///< Summary (re)builds this evaluation.
  /// Per-family counter slices, indexed by AxisFamily; inline array so
  /// collecting stats still allocates nothing on the hot path.
  AxisFamilyStats axis[kAxisFamilyCount];
  /// Time inside the pruner's sweep gates: summary binding, the plan's
  /// abstract pass, and every region build (0 with pruning off).
  double prune_bind_seconds = 0.0;
  double seconds = 0.0;
};

/// \brief Fills the aggregate sweep counters of `*stats` by summing its
/// family slices; the per-query evaluator and the shared-batch runner
/// call it once, at the end of an evaluation.
void SumAxisFamilies(EvalStats* stats);

/// \brief Evaluates `plan` on `*instance` (mutating it: the result is
/// added, intermediate selections live in scratch columns returned
/// afterwards; splitting axes may partially decompress). Returns the id
/// of the result relation (`kResultRelation`).
Result<RelationId> Evaluate(Instance* instance,
                            const algebra::QueryPlan& plan,
                            const EvalOptions& options = {},
                            EvalStats* stats = nullptr);

/// \brief The column arithmetic of one non-axis op, shared by the
/// per-query evaluator and the shared-batch runner (engine/batch.cc) —
/// one implementation so the two paths cannot diverge. Writes `op`'s
/// selection into the zeroed column `dst`; `input0`/`input1` are the
/// resolved input columns of the plan (ignored by ops that take none).
/// Covers kRoot / kAllNodes / kUnion / kIntersect / kDifference /
/// kRootFilter; relation and context *resolution* (and kAxis) stay with
/// the caller. No-op for those kinds.
void ApplyColumnOp(Instance* instance, const algebra::Op& op,
                   RelationId input0, RelationId input1, RelationId dst);

}  // namespace xcq::engine

#endif  // XCQ_ENGINE_EVALUATOR_H_
