#ifndef XCQ_SESSION_QUERY_SESSION_H_
#define XCQ_SESSION_QUERY_SESSION_H_

/// \file query_session.h
/// High-level query interface over one document — the evaluation mode of
/// Sec. 4 of the paper, packaged for downstream use.
///
/// The paper's prototype re-parses the document for every query,
/// extracting exactly the tags and string constraints the query needs.
/// `QuerySession` supports that mode (`reuse_instance = false`) and the
/// mode the paper describes as the natural next step (Sec. 2.3 + Sec. 4):
/// keep one accumulated compressed instance; when a query needs labels
/// that are not yet present, distill a small instance carrying only the
/// missing labels in one scan and merge it in with the common-extension
/// (product) algorithm, then evaluate purely in main memory.
///
/// A session can also be opened directly over a compressed instance
/// (`FromInstance`, e.g. one reloaded from a `.xcqi` file): the source
/// document is then never touched again — queries whose labels the
/// instance does not carry fail with `kNotFound` instead of re-parsing.

#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "xcq/compress/compressor.h"
#include "xcq/engine/evaluator.h"
#include "xcq/instance/instance.h"
#include "xcq/obs/trace.h"
#include "xcq/util/result.h"

namespace xcq {

struct SessionOptions {
  /// Accumulate one instance across queries, merging in missing labels
  /// via common extensions; false re-compresses per query (the paper's
  /// prototype behaviour).
  bool reuse_instance = true;
  /// Re-minimize after each `Evaluate`, so splitting queries do not leave
  /// the accumulated instance permanently grown (the reclaim measured by
  /// bench_ablation section (c)). Result counts are taken before the
  /// re-minimization, so outcomes are unaffected.
  bool minimize_after_query = false;
  /// With `minimize_after_query`: reclaim with the *incremental* in-place
  /// pass (`MinimizeInPlace`) — only vertices split, re-pointed, or whose
  /// result bit flipped are re-canonicalized against the persistent
  /// hash-cons table kept in the instance. Off = the original full
  /// re-hash rebuild (`Minimize`) after every query.
  bool incremental_minimize = true;
  /// Default per-query work budgets (engine/guard.h); 0 = unlimited.
  /// Applied to every evaluation unless the per-request `QueryControl`
  /// overrides them. Blow-ups convert to `kResourceExhausted` instead
  /// of unbounded latency.
  uint64_t max_sweep_visits = 0;
  uint64_t max_split_growth = 0;
};

/// \brief Per-request execution controls threaded from the serving
/// layer: cooperative cancellation (deadline / client disconnect) and
/// work-budget overrides. All fields optional; a default-constructed
/// control runs unrestricted (minus the session's default budgets).
struct QueryControl {
  /// Borrowed cancellation token; polled at phase and band boundaries
  /// throughout parsing, labeling, evaluation, and minimization. Null =
  /// never cancelled.
  const CancelToken* cancel = nullptr;
  /// Overrides `SessionOptions::max_sweep_visits` when non-zero.
  uint64_t max_sweep_visits = 0;
  /// Overrides `SessionOptions::max_split_growth` when non-zero.
  uint64_t max_split_growth = 0;
};

/// \brief Result summary of one query execution.
struct QueryOutcome {
  /// Reachable instance vertices selected.
  uint64_t selected_dag_nodes = 0;
  /// Tree nodes those vertices represent (decoded by path counting).
  uint64_t selected_tree_nodes = 0;
  /// Engine counters (splits, sizes, time).
  engine::EvalStats stats;
  /// Seconds spent parsing/merging to obtain the labeled instance.
  double label_seconds = 0.0;
  /// Seconds spent re-minimizing after the query (0 unless
  /// `minimize_after_query` is set); covers the incremental or full
  /// pass, whichever the options selected.
  double minimize_seconds = 0.0;
  /// Phase spans of this query (parse / compile / label / sweep /
  /// minimize), recorded inline — no allocation. The serving
  /// layer appends its serialize span and renders the JSON trace line.
  obs::QueryTrace trace;
};

/// \brief Everything a *set* of queries needs from the document: the
/// union of each query's tags and string patterns, deduplicated. Used by
/// batched evaluation to pay the label-extraction / common-extension
/// merge once for the whole batch.
xpath::QueryRequirements CollectBatchRequirements(
    const std::vector<xpath::Query>& queries);

/// As above from query texts; fails on the first unparseable query.
Result<xpath::QueryRequirements> CollectBatchRequirements(
    const std::vector<std::string>& query_texts);

/// \brief One document, many queries.
class QuerySession {
 public:
  /// Takes ownership of the document text.
  static Result<QuerySession> Open(std::string xml,
                                   SessionOptions options = {});

  /// Opens a session over an already-compressed instance (typically
  /// loaded from a `.xcqi` file) with no source document behind it.
  /// The tracked tag / pattern sets are recovered from the instance's
  /// live relations; queries needing anything else fail with `kNotFound`
  /// rather than re-parsing. `reuse_instance` is forced on.
  static Result<QuerySession> FromInstance(Instance instance,
                                           SessionOptions options = {});

  /// Parses, compiles, and evaluates `query_text`; returns the outcome.
  /// The result selection also remains available as the
  /// `engine::kResultRelation` relation of `instance()`. A cancelled or
  /// budget-exhausted run fails with `kCancelled` / `kDeadlineExceeded` /
  /// `kResourceExhausted` and leaves the instance structurally
  /// consistent (same represented tree; at most some unmerged splits,
  /// reclaimed by the next minimization) — the session stays usable.
  Result<QueryOutcome> Run(std::string_view query_text,
                           const QueryControl& control = {});

  /// Evaluates a batch of queries in one pass: the label sets of all
  /// queries are unioned *before* the (single) scan + common-extension
  /// merge, so a batch pays the per-label document work once instead of
  /// once per query. Outcomes are index-aligned with `query_texts`; the
  /// shared label time is reported on the first outcome. Fails as a
  /// whole if any query does not parse or compile.
  ///
  /// The batch is evaluated with *shared sweeps* (engine/evaluator.h):
  /// same-axis ops of different queries are grouped into one
  /// multi-source traversal instead of one sweep per query. Answers are
  /// bit-identical to per-query evaluation — sharing engages only while
  /// no query would split the DAG and falls back (per batch) otherwise.
  /// With `minimize_after_query` on the batch always runs per query:
  /// re-minimization between members re-orders mutations that sharing
  /// elides.
  Result<std::vector<QueryOutcome>> RunBatch(
      const std::vector<std::string>& query_texts,
      const QueryControl& control = {});

  /// The current accumulated instance (reuse mode), or the instance of
  /// the most recent query. Invalid before the first `Run`.
  const Instance& instance() const { return *instance_; }
  bool has_instance() const { return instance_.has_value(); }

  /// True when a source document is available for label extraction
  /// (false for `FromInstance` sessions).
  bool has_source() const { return has_source_; }

  /// Labels currently present in the accumulated instance.
  size_t tracked_tag_count() const { return tags_.size(); }
  size_t tracked_pattern_count() const { return patterns_.size(); }

  /// Number of scans of the source document so far (initial compression
  /// plus every common-extension distillation). Stays 0 for
  /// `FromInstance` sessions — the "zero re-parses" guarantee.
  uint64_t source_parse_count() const { return source_parse_count_; }

  /// Batches served with shared sweeps / batches whose shared attempt
  /// aborted on a split demand and fell back to per-query evaluation.
  /// Batches that never attempt sharing (single query,
  /// `minimize_after_query` on) move neither counter, so their sum is
  /// the number of shared *attempts*, not of RunBatch calls.
  uint64_t shared_batch_count() const { return shared_batches_; }
  uint64_t shared_batch_fallback_count() const {
    return shared_batch_fallbacks_;
  }

 private:
  QuerySession(std::string xml, SessionOptions options)
      : xml_(std::move(xml)), options_(options) {}

  /// Ensures `instance_` carries all of `tags` / `patterns`.
  Status EnsureLabels(const std::vector<std::string>& tags,
                      const std::vector<std::string>& patterns,
                      double* seconds);

  /// Evaluates one compiled plan on the ensured instance; shared by Run
  /// and RunBatch. Records sweep / minimize spans on
  /// `trace` (null = no tracing).
  Result<QueryOutcome> EvaluatePlan(const algebra::QueryPlan& plan,
                                    obs::QueryTrace* trace,
                                    const QueryControl& control);

  /// Engine options for one evaluation under `control`: cancellation
  /// and the resolved work budgets (per-request override wins over the
  /// session default).
  engine::EvalOptions MakeEvalOptions(const QueryControl& control) const;

  /// Marks vertices whose result-relation bit flipped between queries as
  /// dirty (relation columns are rewritten wholesale, so the instance
  /// cannot attribute those changes itself). `had_previous` is false on
  /// the first query, when every set result bit is a flip.
  void MarkResultFlips(const DynamicBitset& previous, bool had_previous,
                       RelationId result);

  std::string xml_;
  SessionOptions options_;
  std::optional<Instance> instance_;
  std::set<std::string> tags_;
  std::set<std::string> patterns_;
  bool has_source_ = true;
  uint64_t source_parse_count_ = 0;
  uint64_t shared_batches_ = 0;
  uint64_t shared_batch_fallbacks_ = 0;
};

}  // namespace xcq

#endif  // XCQ_SESSION_QUERY_SESSION_H_
