#include "xcq/session/query_session.h"

#include <algorithm>

#include "xcq/algebra/compiler.h"
#include "xcq/compress/common_extension.h"
#include "xcq/compress/minimize.h"
#include "xcq/instance/stats.h"
#include "xcq/util/string_util.h"
#include "xcq/util/timer.h"
#include "xcq/xpath/parser.h"

namespace xcq {

namespace {

/// Inserts `items` into `out` preserving first-seen order, skipping
/// duplicates already in `seen`.
void MergeUnique(const std::vector<std::string>& items,
                 std::set<std::string>* seen,
                 std::vector<std::string>* out) {
  for (const std::string& item : items) {
    if (seen->insert(item).second) out->push_back(item);
  }
}

}  // namespace

xpath::QueryRequirements CollectBatchRequirements(
    const std::vector<xpath::Query>& queries) {
  xpath::QueryRequirements all;
  std::set<std::string> seen_tags;
  std::set<std::string> seen_patterns;
  for (const xpath::Query& query : queries) {
    const xpath::QueryRequirements reqs = CollectRequirements(query);
    MergeUnique(reqs.tags, &seen_tags, &all.tags);
    MergeUnique(reqs.patterns, &seen_patterns, &all.patterns);
  }
  return all;
}

Result<xpath::QueryRequirements> CollectBatchRequirements(
    const std::vector<std::string>& query_texts) {
  std::vector<xpath::Query> queries;
  queries.reserve(query_texts.size());
  for (const std::string& text : query_texts) {
    XCQ_ASSIGN_OR_RETURN(xpath::Query query, xpath::ParseQuery(text));
    queries.push_back(std::move(query));
  }
  return CollectBatchRequirements(queries);
}

Result<QuerySession> QuerySession::Open(std::string xml,
                                        SessionOptions options) {
  return QuerySession(std::move(xml), options);
}

Result<QuerySession> QuerySession::FromInstance(Instance instance,
                                                SessionOptions options) {
  XCQ_RETURN_IF_ERROR(instance.Validate());
  if (instance.vertex_count() == 0 || instance.root() == kNoVertex) {
    return Status::InvalidArgument(
        "QuerySession::FromInstance: instance has no root");
  }
  // There is no document to re-scan, so per-query mode is meaningless.
  options.reuse_instance = true;
  QuerySession session(std::string(), options);
  session.has_source_ = false;
  // Recover the tracked label sets from the live relations: `str:`
  // relations are string patterns, everything else a tag (or a result /
  // temporary relation from an earlier evaluation, which is harmless to
  // track — queries cannot name `xcq:`-prefixed relations).
  for (const RelationId r : instance.LiveRelations()) {
    const std::string& name = instance.schema().Name(r);
    std::string_view pattern;
    if (Schema::ParseStringRelationName(name, &pattern)) {
      session.patterns_.insert(std::string(pattern));
    } else {
      session.tags_.insert(name);
    }
  }
  session.instance_ = std::move(instance);
  return session;
}

Status QuerySession::EnsureLabels(const std::vector<std::string>& tags,
                                  const std::vector<std::string>& patterns,
                                  double* seconds) {
  Timer timer;
  std::vector<std::string> missing_tags;
  std::vector<std::string> missing_patterns;
  for (const std::string& tag : tags) {
    if (!tags_.count(tag)) missing_tags.push_back(tag);
  }
  for (const std::string& pattern : patterns) {
    if (!patterns_.count(pattern)) missing_patterns.push_back(pattern);
  }

  const bool fresh = !instance_.has_value() || !options_.reuse_instance;
  if (!fresh && missing_tags.empty() && missing_patterns.empty()) {
    *seconds = timer.Seconds();
    return Status::OK();  // everything already present — no re-parse
  }

  if (!has_source_) {
    // Instance-only sessions have nothing to scan: surface exactly what
    // is missing instead of silently answering from absent relations.
    std::string detail;
    for (const std::string& tag : missing_tags) {
      detail += detail.empty() ? tag : ", " + tag;
    }
    for (const std::string& pattern : missing_patterns) {
      const std::string quoted = "\"" + pattern + "\"";
      detail += detail.empty() ? quoted : ", " + quoted;
    }
    return Status::NotFound(
        StrFormat("query needs labels not carried by the cached instance "
                  "and no source document is available: %s",
                  detail.c_str()));
  }

  CompressOptions copts;
  copts.mode = LabelMode::kSchema;
  if (fresh) {
    // First query (or per-query mode): one scan with the full label set.
    copts.tags = tags;
    copts.patterns = patterns;
    ++source_parse_count_;
    XCQ_ASSIGN_OR_RETURN(Instance inst, CompressXml(xml_, copts));
    instance_ = std::move(inst);
    tags_ = {tags.begin(), tags.end()};
    patterns_ = {patterns.begin(), patterns.end()};
    if (!options_.reuse_instance) {
      // The per-query mode never accumulates.
      tags_.clear();
      patterns_.clear();
    }
    *seconds = timer.Seconds();
    return Status::OK();
  }

  // Reuse mode with missing labels: distill a small instance carrying
  // only what is missing, and merge it in (Sec. 2.3).
  copts.tags = missing_tags;
  copts.patterns = missing_patterns;
  ++source_parse_count_;
  XCQ_ASSIGN_OR_RETURN(const Instance addition, CompressXml(xml_, copts));
  XCQ_ASSIGN_OR_RETURN(Instance merged,
                       CommonExtension(*instance_, addition));
  instance_ = std::move(merged);
  tags_.insert(missing_tags.begin(), missing_tags.end());
  patterns_.insert(missing_patterns.begin(), missing_patterns.end());
  *seconds = timer.Seconds();
  return Status::OK();
}

engine::EvalOptions QuerySession::MakeEvalOptions(
    const QueryControl& control) const {
  engine::EvalOptions eval_options;
  eval_options.cancel = control.cancel;
  eval_options.max_sweep_visits = control.max_sweep_visits != 0
                                      ? control.max_sweep_visits
                                      : options_.max_sweep_visits;
  eval_options.max_split_growth = control.max_split_growth != 0
                                      ? control.max_split_growth
                                      : options_.max_split_growth;
  return eval_options;
}

Result<QueryOutcome> QuerySession::EvaluatePlan(
    const algebra::QueryPlan& plan, obs::QueryTrace* trace,
    const QueryControl& control) {
  QueryOutcome outcome;
  const bool incremental =
      options_.minimize_after_query && options_.incremental_minimize;

  // The incremental pass needs every structural change recorded and the
  // result-column delta: snapshot the previous result bits, then let the
  // instance track splits and edge rewrites through the evaluation.
  DynamicBitset previous_result;
  bool had_previous = false;
  if (incremental) {
    instance_->SetDirtyTracking(true);
    const RelationId prev =
        instance_->FindRelation(engine::kResultRelation);
    if (prev != kNoRelation) {
      previous_result = instance_->RelationBits(prev);
      had_previous = true;
    }
  }

  const engine::EvalOptions eval_options = MakeEvalOptions(control);
  RelationId result = kNoRelation;
  {
    obs::QueryTrace::Scope sweep_span(trace, obs::Phase::kSweep);
    XCQ_ASSIGN_OR_RETURN(
        const RelationId sweep_result,
        engine::Evaluate(&*instance_, plan, eval_options, &outcome.stats));
    result = sweep_result;
  }
  outcome.selected_dag_nodes = SelectedDagNodeCount(*instance_, result);
  outcome.selected_tree_nodes = SelectedTreeNodeCount(*instance_, result);
  if (options_.minimize_after_query) {
    // Counts were taken above; the result relation survives minimization
    // (vertices differing on it are not bisimilar), so enumeration over
    // `instance()` stays possible — just over the re-compressed DAG.
    obs::QueryTrace::Scope minimize_span(trace, obs::Phase::kMinimize);
    if (incremental) {
      MarkResultFlips(previous_result, had_previous, result);
      InPlaceMinimizeOptions mopts;
      mopts.cancel = control.cancel;
      InPlaceMinimizeStats mstats;
      // On a cancelled pass dirty tracking stays on and the cache is
      // invalidated, so the next pass reseeds — the instance itself is
      // already minimal-or-consistent either way.
      XCQ_RETURN_IF_ERROR(MinimizeInPlace(&*instance_, mopts, &mstats));
      instance_->SetDirtyTracking(false);
      outcome.minimize_seconds = mstats.seconds;
    } else {
      // The full pass rebuilds into a fresh instance, so mid-pass
      // cancellation points are unnecessary for consistency; one poll
      // up front keeps an expired request from paying for the rebuild.
      if (control.cancel != nullptr) {
        XCQ_RETURN_IF_ERROR(control.cancel->Check());
      }
      Timer timer;
      XCQ_ASSIGN_OR_RETURN(Instance minimal, Minimize(*instance_));
      instance_ = std::move(minimal);
      outcome.minimize_seconds = timer.Seconds();
    }
  }
  return outcome;
}

void QuerySession::MarkResultFlips(const DynamicBitset& previous,
                                   bool had_previous, RelationId result) {
  const DynamicBitset& current = instance_->RelationBits(result);
  if (!had_previous) {
    // First query: the whole selection is new. (The cache is invalid
    // before the first pass anyway, but keep the contract exact.)
    current.ForEach([this](size_t v) {
      instance_->MarkVertexDirty(static_cast<VertexId>(v));
    });
    return;
  }
  // Word-parallel XOR of the two columns. Bits past the previous size
  // belong to vertices created during this evaluation, which are already
  // dirty by construction.
  const std::vector<uint64_t>& before = previous.words();
  const std::vector<uint64_t>& after = current.words();
  const size_t words = std::min(before.size(), after.size());
  for (size_t w = 0; w < words; ++w) {
    uint64_t diff = before[w] ^ after[w];
    while (diff != 0) {
      const int bit = __builtin_ctzll(diff);
      instance_->MarkVertexDirty(
          static_cast<VertexId>(w * 64 + static_cast<size_t>(bit)));
      diff &= diff - 1;
    }
  }
}

Result<QueryOutcome> QuerySession::Run(std::string_view query_text,
                                       const QueryControl& control) {
  // A request that expired while queued should not pay for parsing or
  // a document scan; the engine re-polls throughout the evaluation.
  if (control.cancel != nullptr) {
    XCQ_RETURN_IF_ERROR(control.cancel->Check());
  }
  obs::QueryTrace trace;
  obs::QueryTrace::Scope parse_span(&trace, obs::Phase::kParse);
  XCQ_ASSIGN_OR_RETURN(const xpath::Query query,
                       xpath::ParseQuery(query_text));
  parse_span.Close();
  obs::QueryTrace::Scope compile_span(&trace, obs::Phase::kCompile);
  XCQ_ASSIGN_OR_RETURN(const algebra::QueryPlan plan,
                       algebra::Compile(query));
  compile_span.Close();
  const xpath::QueryRequirements reqs = CollectRequirements(query);

  double label_seconds = 0.0;
  {
    obs::QueryTrace::Scope label_span(&trace, obs::Phase::kLabel);
    XCQ_RETURN_IF_ERROR(
        EnsureLabels(reqs.tags, reqs.patterns, &label_seconds));
  }
  XCQ_ASSIGN_OR_RETURN(QueryOutcome outcome,
                       EvaluatePlan(plan, &trace, control));
  outcome.label_seconds = label_seconds;
  outcome.trace = trace;
  return outcome;
}

Result<std::vector<QueryOutcome>> QuerySession::RunBatch(
    const std::vector<std::string>& query_texts,
    const QueryControl& control) {
  if (control.cancel != nullptr) {
    XCQ_RETURN_IF_ERROR(control.cancel->Check());
  }
  // Parse and compile everything first — a batch is all-or-nothing, and
  // failing before EnsureLabels keeps the accumulated instance untouched
  // on bad input.
  std::vector<xpath::Query> queries;
  std::vector<algebra::QueryPlan> plans;
  std::vector<obs::QueryTrace> traces(query_texts.size());
  queries.reserve(query_texts.size());
  plans.reserve(query_texts.size());
  for (size_t i = 0; i < query_texts.size(); ++i) {
    obs::QueryTrace::Scope parse_span(&traces[i], obs::Phase::kParse);
    XCQ_ASSIGN_OR_RETURN(xpath::Query query,
                         xpath::ParseQuery(query_texts[i]));
    parse_span.Close();
    obs::QueryTrace::Scope compile_span(&traces[i], obs::Phase::kCompile);
    XCQ_ASSIGN_OR_RETURN(algebra::QueryPlan plan, algebra::Compile(query));
    compile_span.Close();
    queries.push_back(std::move(query));
    plans.push_back(std::move(plan));
  }
  const xpath::QueryRequirements all = CollectBatchRequirements(queries);

  // One scan + one common-extension merge for the union of all label
  // sets — the amortization that makes batching worthwhile. Like the
  // shared label time, the shared label span lands on the first trace.
  double label_seconds = 0.0;
  {
    obs::QueryTrace::Scope label_span(
        traces.empty() ? nullptr : &traces.front(), obs::Phase::kLabel);
    XCQ_RETURN_IF_ERROR(
        EnsureLabels(all.tags, all.patterns, &label_seconds));
  }

  // Shared sweeps: evaluate the whole batch in lockstep, same-axis ops
  // of different queries folded into one traversal (engine/evaluator.h).
  // Only attempted when per-query evaluation would not interleave
  // instance mutations between queries; the attempt itself aborts —
  // leaving the instance untouched — if any query demands a split.
  if (plans.size() >= 2 && !options_.minimize_after_query) {
    const engine::EvalOptions eval_options = MakeEvalOptions(control);
    engine::EvalStats shared_stats;
    const double shared_start = traces.front().Elapsed();
    engine::SharedBatchResult shared = engine::EvaluateBatchShared(
        &*instance_, plans, eval_options, &shared_stats);
    if (shared.engaged) {
      // Book the whole shared traversal as one sweep span on the first
      // trace (the convention for per-batch figures); on fallback the
      // per-query EvaluatePlan spans cover it instead.
      traces.front().AddSpan(obs::Phase::kSweep, shared_start,
                             traces.front().Elapsed() - shared_start);
      ++shared_batches_;
      std::vector<QueryOutcome> outcomes(plans.size());
      // Shared sweeps are per batch, not per query: the batch's sweep
      // counters ride on the first outcome (like the shared label time).
      outcomes.front().stats = shared_stats;
      const TraversalCache& t = instance_->EnsureTraversal();
      for (size_t i = 0; i < plans.size(); ++i) {
        QueryOutcome& outcome = outcomes[i];
        // No query mutated the DAG (sharing aborts otherwise), so every
        // query saw — and left — the same instance.
        outcome.stats.vertices_before = t.order.size();
        outcome.stats.vertices_after = t.order.size();
        outcome.stats.edges_before = t.reachable_edges;
        outcome.stats.edges_after = t.reachable_edges;
        outcome.stats.seconds =
            shared_stats.seconds / static_cast<double>(plans.size());
        outcome.selected_dag_nodes =
            SelectedDagNodeCount(*instance_, shared.results[i]);
        outcome.selected_tree_nodes =
            SelectedTreeNodeCount(*instance_, shared.results[i]);
      }
      // Net observable effect of the per-query loop: the public result
      // relation holds the last query's selection.
      const RelationId result =
          instance_->AddRelation(engine::kResultRelation);
      instance_->MutableRelationBits(result) =
          instance_->RelationBits(shared.results.back());
      for (const RelationId id : shared.results) {
        instance_->ReleaseScratchRelation(id);
      }
      outcomes.front().label_seconds = label_seconds;
      for (size_t i = 0; i < outcomes.size(); ++i) {
        outcomes[i].trace = std::move(traces[i]);
      }
      return outcomes;
    }
    ++shared_batch_fallbacks_;
  }

  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    XCQ_ASSIGN_OR_RETURN(QueryOutcome outcome,
                         EvaluatePlan(plans[i], &traces[i], control));
    outcome.trace = std::move(traces[i]);
    outcomes.push_back(std::move(outcome));
  }
  if (!outcomes.empty()) outcomes.front().label_seconds = label_seconds;
  return outcomes;
}

}  // namespace xcq
