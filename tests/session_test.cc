#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"
#include "xcq/session/query_session.h"

namespace xcq {
namespace {

TEST(QuerySessionTest, SingleQuery) {
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open(testing::BibExampleXml()));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome outcome,
                           session.Run("//paper/author"));
  EXPECT_EQ(outcome.selected_tree_nodes, 2u);
  EXPECT_TRUE(session.has_instance());
  XCQ_ASSERT_OK(session.instance().Validate());
}

TEST(QuerySessionTest, SecondQueryReusesInstanceWithoutReparse) {
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open(testing::BibExampleXml()));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome first,
                           session.Run("//paper/author"));
  (void)first;
  // Same requirements: the second run must not touch the document.
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome second,
                           session.Run("//author/parent::paper"));
  EXPECT_EQ(second.selected_tree_nodes, 2u);
  EXPECT_EQ(session.tracked_tag_count(), 2u);  // paper, author
}

TEST(QuerySessionTest, MissingLabelsMergedViaCommonExtension) {
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open(testing::BibExampleXml()));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome first,
                           session.Run("//paper"));
  EXPECT_EQ(first.selected_tree_nodes, 2u);
  EXPECT_EQ(session.tracked_tag_count(), 1u);

  // Needs "author", "title" and a string constraint — all missing.
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome second,
                           session.Run("//paper[author[\"Vardi\"]]/title"));
  EXPECT_EQ(second.selected_tree_nodes, 1u);
  EXPECT_EQ(session.tracked_tag_count(), 3u);
  EXPECT_EQ(session.tracked_pattern_count(), 1u);

  // And the merged instance answers earlier-style queries correctly too.
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome third,
                           session.Run("//paper[title]"));
  EXPECT_EQ(third.selected_tree_nodes, 2u);
}

TEST(QuerySessionTest, OutcomesMatchFreshEvaluation) {
  // The accumulating session must give identical counts to one fresh
  // session per query (one scan with exactly that query's labels) across
  // a sequence of queries with overlapping requirements.
  const std::string xml = testing::RandomXml(77, 300, 3);
  const char* queries[] = {
      "//t0/t1",
      "//t1[\"market\"]",
      "//t0[t2 and not(t1)]",
      "//t2/following-sibling::t1",
      "/self::*[t0/t1/t2]",
  };

  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession accumulated, QuerySession::Open(xml));
  for (const char* query : queries) {
    SCOPED_TRACE(query);
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome a, accumulated.Run(query));
    XCQ_ASSERT_OK_AND_ASSIGN(QuerySession fresh, QuerySession::Open(xml));
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome b, fresh.Run(query));
    EXPECT_EQ(a.selected_tree_nodes, b.selected_tree_nodes);
    EXPECT_EQ(fresh.source_parse_count(), 1u);
  }
}

TEST(QuerySessionTest, MinimizeAfterQueryReclaimsSplits) {
  // The sibling step splits the shared `b` vertex (occurrences 2..3 of a
  // run are selected, occurrence 1 is not), but the *final* selection is
  // the uniform {a}: once the intermediate selections are dropped, the
  // split copies are bisimilar again and minimize_after_query merges
  // them back. Outcomes (taken before re-minimization) are unchanged.
  const std::string xml =
      "<r><a><b/><b/><b/></a><a><b/><b/><b/></a></r>";
  const char* kSplittingQuery = "//b/following-sibling::b/parent::a";

  SessionOptions plain;
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession grown,
                           QuerySession::Open(xml, plain));
  SessionOptions reclaiming;
  reclaiming.minimize_after_query = true;
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession trimmed,
                           QuerySession::Open(xml, reclaiming));

  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome grown_outcome,
                           grown.Run(kSplittingQuery));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome trimmed_outcome,
                           trimmed.Run(kSplittingQuery));
  EXPECT_EQ(grown_outcome.selected_tree_nodes, 2u);  // both <a>
  EXPECT_EQ(trimmed_outcome.selected_tree_nodes, 2u);
  EXPECT_GT(grown_outcome.stats.splits, 0u);

  // The re-minimized instance is strictly smaller than the split one and
  // still valid, with the result relation intact.
  EXPECT_LT(trimmed.instance().ReachableCount(),
            grown.instance().ReachableCount());
  XCQ_ASSERT_OK(trimmed.instance().Validate());
  const RelationId result =
      trimmed.instance().FindRelation(engine::kResultRelation);
  ASSERT_NE(result, kNoRelation);
  EXPECT_EQ(SelectedTreeNodeCount(trimmed.instance(), result),
            trimmed_outcome.selected_tree_nodes);

  // And later queries still answer identically.
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome grown_again,
                           grown.Run("//a[b]"));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome trimmed_again,
                           trimmed.Run("//a[b]"));
  EXPECT_EQ(grown_again.selected_tree_nodes,
            trimmed_again.selected_tree_nodes);
}

TEST(QuerySessionTest, RunBatchMatchesSequentialRuns) {
  const std::string xml = testing::RandomXml(99, 400, 3);
  const std::vector<std::string> queries = {
      "//t0/t1",
      "//t2[\"market\"]",
      "//t1[t0 and not(t2)]",
      "//t0/following-sibling::t2",
      "//t1/ancestor::t0",
  };

  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession sequential, QuerySession::Open(xml));
  std::vector<uint64_t> expected;
  for (const std::string& query : queries) {
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome outcome,
                             sequential.Run(query));
    expected.push_back(outcome.selected_tree_nodes);
  }

  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession batched, QuerySession::Open(xml));
  XCQ_ASSERT_OK_AND_ASSIGN(const std::vector<QueryOutcome> outcomes,
                           batched.RunBatch(queries));
  ASSERT_EQ(outcomes.size(), queries.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].selected_tree_nodes, expected[i])
        << "query " << queries[i];
  }
  // The whole batch needed exactly one scan; sequential needed one per
  // query introducing new labels.
  EXPECT_EQ(batched.source_parse_count(), 1u);
  EXPECT_GT(sequential.source_parse_count(), 1u);
}

TEST(QuerySessionTest, RunBatchIsAtomicOnBadQuery) {
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open(testing::BibExampleXml()));
  const auto result = session.RunBatch({"//paper", "//["});
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  // The bad query was rejected before any label work: no instance yet.
  EXPECT_FALSE(session.has_instance());
  EXPECT_EQ(session.source_parse_count(), 0u);
}

TEST(QuerySessionTest, CollectBatchRequirementsUnionsLabels) {
  XCQ_ASSERT_OK_AND_ASSIGN(
      const xpath::QueryRequirements reqs,
      CollectBatchRequirements(std::vector<std::string>{
          "//paper/author", "//author[\"Vianu\"]", "//paper/title"}));
  EXPECT_EQ(reqs.tags.size(), 3u);  // paper, author, title — deduplicated
  ASSERT_EQ(reqs.patterns.size(), 1u);
  EXPECT_EQ(reqs.patterns[0], "Vianu");
  EXPECT_EQ(CollectBatchRequirements(std::vector<std::string>{"//ok", "//["})
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST(QuerySessionTest, BadQuerySurfacesParseError) {
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open("<a/>"));
  EXPECT_EQ(session.Run("//[").status().code(), StatusCode::kParseError);
}

TEST(QuerySessionTest, BadDocumentSurfacesOnFirstRun) {
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open("<a><b></a>"));
  EXPECT_EQ(session.Run("//a").status().code(), StatusCode::kParseError);
}

TEST(QuerySessionTest, SessionOnCorpusEndToEnd) {
  corpus::GenerateOptions gen;
  gen.target_nodes = 10000;
  gen.seed = 5;
  const std::string xml = corpus::Shakespeare().Generate(gen);
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session, QuerySession::Open(xml));
  XCQ_ASSERT_OK_AND_ASSIGN(const corpus::QuerySet set,
                           corpus::QueriesFor("Shakespeare"));
  for (const std::string_view query : set.queries) {
    SCOPED_TRACE(std::string(query));
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome outcome,
                             session.Run(query));
    EXPECT_GE(outcome.selected_tree_nodes, 1u);
  }
  XCQ_ASSERT_OK(session.instance().Validate());
}

}  // namespace
}  // namespace xcq
