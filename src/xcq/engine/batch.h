#ifndef XCQ_ENGINE_BATCH_H_
#define XCQ_ENGINE_BATCH_H_

/// \file batch.h
/// Shared-sweep evaluation of a batch of query plans (docs/SERVER.md
/// BATCH, docs/INTERNALS.md §8.3).
///
/// A BATCH of N short queries evaluated one at a time performs N
/// structural sweeps per axis depth even though every sweep walks the
/// same DAG. `EvaluateBatchShared` runs the plans in lockstep instead:
/// at round r it executes op r of every plan, grouping same-axis ops
/// into ONE multi-source sweep — one traversal-cache read, one pass
/// over the child arrays, per-query selections carried as bit positions
/// of per-vertex uint64 masks (batches wider than 64 sweep in chunks).
///
/// The sharing is *optimistic*: it is only correct while no op mutates
/// the DAG, because per-query evaluation orders mutations (splits)
/// between queries and lockstep does not. Every splitting axis is
/// therefore evaluated in a conflict-detecting form — demands are
/// accumulated per vertex and a vertex demanded with both selection
/// bits by the same query is exactly a split the per-query kernel
/// would perform. On the first such conflict the whole shared attempt
/// aborts *before any mutation*: scratch columns are returned, the
/// instance is untouched, and the caller falls back to the per-query
/// path. Answers from an engaged shared run are therefore bit-identical
/// to per-query evaluation; a warmed instance (split fixpoint reached)
/// never aborts.

#include <cstdint>
#include <vector>

#include "xcq/algebra/op.h"
#include "xcq/engine/evaluator.h"
#include "xcq/instance/instance.h"

namespace xcq::engine {

/// \brief Result of a shared-batch attempt. When `engaged`, `results`
/// holds one *scratch* relation per plan (index-aligned) carrying that
/// query's final selection; the caller must copy/count what it needs
/// and return each id via `Instance::ReleaseScratchRelation`. When not
/// engaged the instance is unchanged and `results` is empty.
struct SharedBatchResult {
  bool engaged = false;
  std::vector<RelationId> results;
};

/// \brief Attempts to evaluate `plans` with shared sweeps. Never fails:
/// any input the shared path cannot handle (empty plans, missing
/// context relation, a split demand) simply reports `engaged = false`
/// so the caller can fall back to per-query evaluation — which will
/// also surface any real error. `stats` receives the batch-wide sweep
/// counters (one sweep per chunk, in the family slices and their
/// aggregate sums) and `seconds`; its other fields stay untouched.
SharedBatchResult EvaluateBatchShared(
    Instance* instance, const std::vector<algebra::QueryPlan>& plans,
    const EvalOptions& options, EvalStats* stats = nullptr);

}  // namespace xcq::engine

#endif  // XCQ_ENGINE_BATCH_H_
