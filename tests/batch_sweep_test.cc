// Shared-sweep batch evaluation (engine::EvaluateBatchShared,
// QuerySession::RunBatch).
//
// The contract under test: RunBatch with shared sweeps returns answers
// bit-identical to evaluating the same queries one at a time — for
// every corpus, thread count, and warm/cold instance state. Sharing
// engages only when no query in the batch would split the DAG (a
// warmed instance at its split fixpoint); otherwise the optimistic
// attempt aborts before mutating anything and the batch falls back to
// the per-query path, which is identity by construction. Both regimes
// are pinned here, including the engagement counters the server's
// STATS surface reports.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"

namespace xcq {
namespace {

/// The engine increments only the per-family sweep slices; each
/// aggregate must be the sum of its family field.
void ExpectAggregatesAreFamilySums(const engine::EvalStats& stats) {
  uint64_t visited = 0;
  uint64_t full = 0;
  for (const engine::AxisFamilyStats& family : stats.axis) {
    visited += family.visited;
    full += family.full;
  }
  EXPECT_EQ(stats.sweep_visited, visited);
  EXPECT_EQ(stats.sweep_full, full);
}

SessionOptions ServingOptions() {
  return SessionOptions{};  // reuse_instance on, minimize off: the
                            // daemon's serving defaults
}

/// Runs `queries` through a fresh batched session and a fresh
/// sequential session over the same document, optionally warming both
/// with the same mix first (to the split fixpoint), and asserts
/// outcome-by-outcome equality, and that every outcome's aggregate sweep
/// counters are its family sums (per-query and shared alike). Returns
/// the batched session's shared counters via out-params for engagement
/// assertions, and the batch's first outcome stats (which carry a shared
/// batch's sweep counters) via `batch_stats`.
///
/// With warmup, both sessions hold identical instances when the batch
/// runs, so the comparison is strict: tree counts, DAG counts, splits,
/// reachable structure. Without warmup the batch merges all labels in
/// ONE union pass while the sequential session merges incrementally —
/// equivalent but differently compressed instances — so only the
/// compression-invariant tree-node counts are comparable (same rule as
/// server_test's BATCH-vs-sequential check).
void ExpectBatchMatchesSequential(const std::string& xml,
                                  const std::vector<std::string>& queries,
                                  int warmup_rounds,
                                  uint64_t* shared_count = nullptr,
                                  uint64_t* fallback_count = nullptr,
                                  engine::EvalStats* batch_stats = nullptr) {
  const bool strict = warmup_rounds > 0;
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession batched,
      QuerySession::Open(xml, ServingOptions()));
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession sequential,
      QuerySession::Open(xml, ServingOptions()));

  for (int r = 0; r < warmup_rounds; ++r) {
    for (const std::string& query : queries) {
      XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome warm, batched.Run(query));
      ExpectAggregatesAreFamilySums(warm.stats);
      XCQ_ASSERT_OK(sequential.Run(query).status());
    }
  }

  XCQ_ASSERT_OK_AND_ASSIGN(const std::vector<QueryOutcome> batch,
                           batched.RunBatch(queries));
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(queries[i]);
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome solo,
                             sequential.Run(queries[i]));
    ExpectAggregatesAreFamilySums(batch[i].stats);
    ExpectAggregatesAreFamilySums(solo.stats);
    EXPECT_EQ(batch[i].selected_tree_nodes, solo.selected_tree_nodes);
    if (strict) {
      EXPECT_EQ(batch[i].selected_dag_nodes, solo.selected_dag_nodes);
      EXPECT_EQ(batch[i].stats.splits, solo.stats.splits);
    }
  }

  // Warmed: both instances saw the same query multiset from the same
  // state → identical reachable structure, and the public result
  // relation (last query's selection) must agree.
  if (strict) {
    EXPECT_EQ(batched.instance().ReachableCount(),
              sequential.instance().ReachableCount());
    EXPECT_EQ(batched.instance().ReachableEdgeCount(),
              sequential.instance().ReachableEdgeCount());
  }
  const RelationId rb =
      batched.instance().FindRelation(engine::kResultRelation);
  const RelationId rs =
      sequential.instance().FindRelation(engine::kResultRelation);
  ASSERT_NE(rb, kNoRelation);
  ASSERT_NE(rs, kNoRelation);
  EXPECT_EQ(SelectedTreeNodeCount(batched.instance(), rb),
            SelectedTreeNodeCount(sequential.instance(), rs));
  XCQ_ASSERT_OK(batched.instance().Validate());

  if (batch_stats != nullptr) *batch_stats = batch.front().stats;
  if (shared_count != nullptr) *shared_count = batched.shared_batch_count();
  if (fallback_count != nullptr) {
    *fallback_count = batched.shared_batch_fallback_count();
  }
}

TEST(BatchSweepTest, UpwardOnlyBatchSharesEvenCold) {
  // Tree-pattern queries compile to upward-only algebra (Cor. 3.7):
  // no op can split, so sharing engages on the very first batch.
  const std::vector<std::string> queries = {
      "//paper[author]",
      "//book[author]",
      "//*[author]",
  };
  uint64_t shared = 0;
  uint64_t fallback = 0;
  ExpectBatchMatchesSequential(testing::BibExampleXml(), queries,
                               /*warmup_rounds=*/0, &shared, &fallback);
  EXPECT_EQ(shared, 1u);
  EXPECT_EQ(fallback, 0u);
}

TEST(BatchSweepTest, ColdSplittingBatchFallsBackAndMatches) {
  // A cold instance: the sibling sweep must split, the shared attempt
  // aborts, and the fallback path must be indistinguishable.
  const std::vector<std::string> queries = {
      "//b/following-sibling::b",
      "//a/b",
      "//b/parent::a",
  };
  const std::string xml =
      "<r><a><b/><b/><b/></a><a><b/><b/><b/></a><a><c/><b/></a></r>";
  uint64_t shared = 0;
  uint64_t fallback = 0;
  ExpectBatchMatchesSequential(xml, queries,
                               /*warmup_rounds=*/0, &shared, &fallback);
  EXPECT_EQ(shared, 0u);
  EXPECT_EQ(fallback, 1u);
}

TEST(BatchSweepTest, WarmedSplittingBatchEngagesSharing) {
  // After the warmup reaches the split fixpoint, re-running the same
  // mix demands no further splits and the shared sweep holds.
  const std::vector<std::string> queries = {
      "//b/following-sibling::b",
      "//a/b",
      "//b/parent::a",
      "//a/b/following::*",
  };
  const std::string xml =
      "<r><a><b/><b/><b/></a><a><b/><b/><b/></a><a><c/><b/></a></r>";
  uint64_t shared = 0;
  uint64_t fallback = 0;
  ExpectBatchMatchesSequential(xml, queries,
                               /*warmup_rounds=*/2, &shared, &fallback);
  EXPECT_EQ(shared, 1u);
  EXPECT_EQ(fallback, 0u);
}

TEST(BatchSweepTest, MinimizeAfterQueryDisablesSharing) {
  // Per-query re-minimization between batch members re-orders
  // mutations; sharing must stand down and results still match the
  // sequential minimizing session.
  SessionOptions options = ServingOptions();
  options.minimize_after_query = true;
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession batched,
      QuerySession::Open(testing::BibExampleXml(), options));
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession sequential,
      QuerySession::Open(testing::BibExampleXml(), options));
  const std::vector<std::string> queries = {"//paper/author", "//author"};
  XCQ_ASSERT_OK_AND_ASSIGN(const std::vector<QueryOutcome> batch,
                           batched.RunBatch(queries));
  EXPECT_EQ(batched.shared_batch_count(), 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome solo,
                             sequential.Run(queries[i]));
    EXPECT_EQ(batch[i].selected_tree_nodes, solo.selected_tree_nodes);
  }
}

TEST(BatchSweepTest, SingleQueryBatchTakesThePerQueryPath) {
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession session,
      QuerySession::Open(testing::BibExampleXml(), ServingOptions()));
  XCQ_ASSERT_OK_AND_ASSIGN(const std::vector<QueryOutcome> outcomes,
                           session.RunBatch({"//author"}));
  EXPECT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(session.shared_batch_count(), 0u);
  EXPECT_EQ(session.shared_batch_fallback_count(), 0u);
}

TEST(BatchSweepTest, MixedLengthPlansShareInLockstep) {
  // Plans of different op counts: shorter plans finish while longer
  // ones keep sweeping — the lockstep scheduler must handle ragged
  // rounds and still match per-query answers.
  const std::vector<std::string> queries = {
      "/*",
      "//SPEECH/SPEAKER",
      "//ACT//SPEECH/LINE/parent::SPEECH",
      "//SCENE/SPEECH",
      "//SPEECH[SPEAKER]",
  };
  corpus::GenerateOptions gen;
  gen.target_nodes = 1500;
  gen.seed = 11;
  const std::string xml = corpus::Shakespeare().Generate(gen);
  uint64_t shared = 0;
  ExpectBatchMatchesSequential(xml, queries,
                               /*warmup_rounds=*/2, &shared, nullptr);
  EXPECT_EQ(shared, 1u);
}

TEST(BatchSweepTest, WideBatchSweepsInChunksOf64) {
  // 70 queries put more lanes on one axis than a mask holds: every
  // round's buckets sweep as a 64-lane chunk plus a 6-lane one.
  const std::vector<std::string> mix = {
      "/*",
      "//*",
      "//SPEECH/SPEAKER",
      "//ACT//SPEECH/LINE/parent::SPEECH",
      "//SCENE/SPEECH",
      "//SPEECH[SPEAKER]",
  };
  std::vector<std::string> queries;
  for (size_t i = 0; i < 70; ++i) queries.push_back(mix[i % mix.size()]);
  corpus::GenerateOptions gen;
  gen.target_nodes = 1500;
  gen.seed = 11;
  uint64_t shared = 0;
  ExpectBatchMatchesSequential(corpus::Shakespeare().Generate(gen), queries,
                               /*warmup_rounds=*/2, &shared, nullptr);
  EXPECT_EQ(shared, 1u);
}

TEST(BatchSweepTest, DescendantFromRootTakesTheClosedForm) {
  // Every member starts with `//` from the root, so the shared
  // descendant sweep is the closed form: it counts as pruned and visits
  // nothing, and it is the batch's only sweep.
  const std::vector<std::string> queries = {"//SPEECH", "//LINE",
                                            "//SPEAKER"};
  corpus::GenerateOptions gen;
  gen.target_nodes = 1500;
  gen.seed = 11;
  uint64_t shared = 0;
  engine::EvalStats stats;
  ExpectBatchMatchesSequential(corpus::Shakespeare().Generate(gen), queries,
                               /*warmup_rounds=*/1, &shared, nullptr,
                               &stats);
  EXPECT_EQ(shared, 1u);
  const engine::AxisFamilyStats& down =
      stats.axis[static_cast<size_t>(engine::AxisFamily::kDownward)];
  EXPECT_EQ(down.sweeps, 1u);
  EXPECT_EQ(down.pruned, 1u);
  EXPECT_EQ(down.visited, 0u);
  EXPECT_GT(down.full, 0u);
  EXPECT_EQ(stats.sweep_visited, 0u);
}

TEST(BatchSweepEquivalenceTest, WarmedBatchesOverEveryCorpus) {
  // The full acceptance property: for every corpus, a warmed serving
  // mix (Appendix-A queries plus generic axes) batched with shared
  // sweeps answers exactly like per-query evaluation.
  size_t corpus_index = 0;
  for (const corpus::CorpusGenerator* generator : corpus::AllCorpora()) {
    SCOPED_TRACE(std::string(generator->name()));
    corpus::GenerateOptions gen;
    gen.target_nodes = 900;
    gen.seed = 77 + corpus_index;
    const std::string xml = generator->Generate(gen);

    std::vector<std::string> queries = {"/*", "//*"};
    const Result<corpus::QuerySet> set =
        corpus::QueriesFor(generator->name());
    if (set.ok()) {
      for (const std::string_view q : set->queries) queries.emplace_back(q);
    }

    // Warmed: sharing must both engage and agree. (Engagement is
    // asserted via the counter; equality via every outcome.)
    uint64_t shared = 0;
    ExpectBatchMatchesSequential(xml, queries,
                                 /*warmup_rounds=*/2, &shared, nullptr);
    EXPECT_EQ(shared, 1u) << "sharing did not engage after warmup";
    // Cold: whatever the attempt decides, answers must match.
    ExpectBatchMatchesSequential(xml, queries, /*warmup_rounds=*/0);
    ++corpus_index;
  }
}

TEST(BatchSweepServerTest, StoredDocumentReportsSharedBatches) {
  server::DocumentStore store;
  XCQ_ASSERT_OK(store.LoadXml("doc", testing::BibExampleXml()));
  server::QueryService service(&store, server::ServiceOptions{2});

  server::QueryJob job;
  job.document = "doc";
  job.queries = {"//paper[author]", "//book[author]"};
  XCQ_ASSERT_OK(service.Execute(job).status());

  const std::vector<server::DocumentInfo> stats = store.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].batches_served, 1u);
  EXPECT_EQ(stats[0].batches_shared, 1u);
  EXPECT_NE(server::FormatDocumentInfo(stats[0]).find("shared=1"),
            std::string::npos);
}

TEST(BatchSweepServerTest, StatsSweepCountersEqualMetricsFamilySums) {
  // STATS and the `{axis=...}` METRICS series count the same sweeps,
  // including the ones a shared BATCH runs between two QUERYs.
  corpus::GenerateOptions gen;
  gen.target_nodes = 1500;
  gen.seed = 23;
  server::DocumentStore store;
  XCQ_ASSERT_OK(store.LoadXml("doc", corpus::Shakespeare().Generate(gen)));
  const std::shared_ptr<server::StoredDocument> doc = store.Find("doc");
  ASSERT_NE(doc, nullptr);

  const auto metric_sum = [&](const char* name) {
    double sum = 0.0;
    for (const char* axis : {"downward", "upward", "sibling"}) {
      sum += store.registry()->CounterValue(
          name, obs::LabelSet{{"document", "doc"}, {"axis", axis}});
    }
    return static_cast<uint64_t>(sum);
  };

  XCQ_ASSERT_OK(doc->Query("//SPEECH/SPEAKER").status());
  const uint64_t sweeps_before = metric_sum("xcq_sweeps_total");
  XCQ_ASSERT_OK(doc->Batch({"//SPEECH/SPEAKER", "//SPEECH[SPEAKER]"})
                    .status());
  EXPECT_GT(metric_sum("xcq_sweeps_total"), sweeps_before)
      << "the shared BATCH's sweeps are missing from xcq_sweeps_total";
  XCQ_ASSERT_OK(doc->Query("//ACT//SPEECH/LINE/parent::SPEECH").status());

  const std::vector<server::DocumentInfo> stats = store.Stats();
  ASSERT_EQ(stats.size(), 1u);
  const server::DocumentInfo& info = stats[0];
  ASSERT_EQ(info.batches_shared, 1u);
  EXPECT_GT(info.sweeps.pruned, 0u);  // `//SPEECH` is a closed form
  EXPECT_EQ(info.sweeps.visited, metric_sum("xcq_sweep_visited_total"));
  EXPECT_EQ(info.sweeps.full, metric_sum("xcq_sweep_full_total"));
  EXPECT_EQ(info.sweeps.pruned, metric_sum("xcq_sweeps_pruned_total"));
  EXPECT_EQ(metric_sum("xcq_sweeps_skipped_total"), 0u);  // frozen
}

}  // namespace
}  // namespace xcq
