#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"

namespace xcq {
namespace {

Instance CompressAllTags(const std::string& xml) {
  CompressOptions options;  // LabelMode::kAllTags by default
  auto result = CompressXml(xml, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).Value();
}

TEST(MinimizeInPlaceTest, MatchesFullMinimize) {
  // Grow an instance with a splitting query, then minimize it both ways:
  // the reachable parts must have identical sizes and both be minimal.
  Instance instance =
      CompressAllTags("<r><a><b/><b/><b/></a><a><b/><b/><b/></a></r>");
  XCQ_ASSERT_OK_AND_ASSIGN(
      const xpath::Query query,
      xpath::ParseQuery("//b/following-sibling::b/parent::a"));
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::Compile(query));
  engine::EvalStats stats;
  XCQ_ASSERT_OK_AND_ASSIGN(
      const RelationId result,
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, &stats));
  (void)result;
  EXPECT_GT(stats.splits, 0u);

  XCQ_ASSERT_OK_AND_ASSIGN(const Instance full, Minimize(instance));

  InPlaceMinimizeStats mstats;
  XCQ_ASSERT_OK(MinimizeInPlace(&instance, nullptr, &mstats));
  EXPECT_GT(mstats.merged, 0u);
  EXPECT_EQ(mstats.reachable_vertices, full.vertex_count());
  EXPECT_EQ(mstats.reachable_edges, full.rle_edge_count());

  EXPECT_EQ(instance.ReachableCount(), full.vertex_count());
  EXPECT_EQ(instance.ReachableEdgeCount(), full.rle_edge_count());
  XCQ_ASSERT_OK(instance.Validate());
  XCQ_ASSERT_OK_AND_ASSIGN(const bool minimal, IsMinimal(instance));
  EXPECT_TRUE(minimal);
  XCQ_ASSERT_OK_AND_ASSIGN(const bool equivalent,
                           AreEquivalent(instance, full));
  EXPECT_TRUE(equivalent);
}

TEST(MinimizeInPlaceTest, GarbageRatioTriggersCompaction) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  const size_t minimal = instance.vertex_count();

  // Manufacture unreachable garbage: clones never linked to a parent,
  // one more than the reachable vertices, so garbage is past half.
  for (size_t i = 0; i <= minimal; ++i) {
    instance.CloneVertex(instance.root());
  }
  InPlaceMinimizeStats mstats;
  XCQ_ASSERT_OK(MinimizeInPlace(&instance, nullptr, &mstats));
  EXPECT_TRUE(mstats.compacted);
  EXPECT_EQ(instance.vertex_count(), minimal);
  EXPECT_EQ(instance.vertex_count(), instance.ReachableCount());
  XCQ_ASSERT_OK(instance.Validate());
}

TEST(MinimizeInPlaceTest, GarbageBelowRatioStaysInPlace) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  const size_t minimal = instance.vertex_count();

  // Exactly half the vertex array is garbage: not past the ratio.
  for (size_t i = 0; i < minimal; ++i) {
    instance.CloneVertex(instance.root());
  }
  InPlaceMinimizeStats mstats;
  XCQ_ASSERT_OK(MinimizeInPlace(&instance, nullptr, &mstats));
  EXPECT_FALSE(mstats.compacted);
  EXPECT_EQ(mstats.merged, 0u);
  EXPECT_EQ(instance.vertex_count(), 2 * minimal);
  EXPECT_EQ(instance.ReachableCount(), minimal);
  XCQ_ASSERT_OK(instance.Validate());
}

TEST(MinimizeInPlaceTest, RejectsEmptyInstance) {
  Instance empty;
  EXPECT_EQ(MinimizeInPlace(&empty).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(MinimizeInPlace(nullptr).code(), StatusCode::kInvalidArgument);
}

/// Full-minimizes a copy of `instance` and asserts the in-place pass
/// already left it minimal and equivalent to the copy: the copy's size
/// equals the reachable part, and the result relation selects the same
/// DAG and tree nodes.
void ExpectMatchesFullMinimize(const Instance& instance) {
  XCQ_ASSERT_OK_AND_ASSIGN(const bool minimal, IsMinimal(instance));
  EXPECT_TRUE(minimal);
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance full, Minimize(instance));
  XCQ_ASSERT_OK_AND_ASSIGN(const bool equivalent,
                           AreEquivalent(instance, full));
  EXPECT_TRUE(equivalent);
  EXPECT_EQ(instance.ReachableCount(), full.vertex_count());
  EXPECT_EQ(instance.ReachableEdgeCount(), full.rle_edge_count());
  const RelationId mine = instance.FindRelation(engine::kResultRelation);
  const RelationId theirs = full.FindRelation(engine::kResultRelation);
  ASSERT_EQ(mine == kNoRelation, theirs == kNoRelation);
  if (mine == kNoRelation) return;
  EXPECT_EQ(SelectedDagNodeCount(instance, mine),
            SelectedDagNodeCount(full, theirs));
  EXPECT_EQ(SelectedTreeNodeCount(instance, mine),
            SelectedTreeNodeCount(full, theirs));
}

/// The reclaiming session must answer every query like the session
/// that never reclaims, and after every query its instance must be
/// minimal and equivalent to `Minimize` of itself.
void RunEquivalenceSequence(const std::string& xml,
                            const std::vector<std::string>& queries) {
  SessionOptions plain;  // no reclaim: the control for outcome counts
  SessionOptions reclaim;
  reclaim.minimize_after_query = true;

  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession plain_session,
                           QuerySession::Open(xml, plain));
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession reclaim_session,
                           QuerySession::Open(xml, reclaim));

  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome p, plain_session.Run(query));
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome r,
                             reclaim_session.Run(query));
    // Tree-node counts are invariant under (re)compression; DAG-node
    // counts are not (a more-compressed instance selects fewer, larger
    // vertices), so the no-reclaim control only pins the former.
    EXPECT_EQ(p.selected_tree_nodes, r.selected_tree_nodes);

    XCQ_ASSERT_OK(reclaim_session.instance().Validate());
    ExpectMatchesFullMinimize(reclaim_session.instance());
  }
}

TEST(MinimizeIncrementalEquivalenceTest, RandomizedSequencesOverEveryCorpus) {
  // Axis-only splitters every corpus understands, mixed with the
  // corpus-specific Appendix-A queries below.
  const std::vector<std::string> generic = {
      "//*/following-sibling::*",
      "//*/preceding-sibling::*",
      "//*",
      "/*",
  };

  size_t corpus_index = 0;
  for (const corpus::CorpusGenerator* generator : corpus::AllCorpora()) {
    SCOPED_TRACE(std::string(generator->name()));
    corpus::GenerateOptions gen;
    gen.target_nodes = 1200;
    gen.seed = 7 + corpus_index;
    const std::string xml = generator->Generate(gen);

    std::vector<std::string> pool = generic;
    const Result<corpus::QuerySet> set =
        corpus::QueriesFor(generator->name());
    if (set.ok()) {
      for (const std::string_view q : set->queries) {
        pool.emplace_back(q);
      }
    }
    // Deterministic shuffle per corpus: 8 draws (with repetition, so
    // no-new-label and result-flip paths both get exercised).
    Rng rng(1234 + corpus_index);
    std::vector<std::string> sequence;
    for (int i = 0; i < 8; ++i) sequence.push_back(rng.Pick(pool));

    RunEquivalenceSequence(xml, sequence);
    ++corpus_index;
  }
}

TEST(MinimizeIncrementalEquivalenceTest, FromInstanceSessionsReclaim) {
  // Reclaim over a .xcqi-style session: no source document, labels
  // recovered from the instance, zero re-parses throughout.
  Instance instance =
      CompressAllTags("<r><a><b/><b/><b/></a><a><b/><b/><b/></a></r>");
  SessionOptions options;
  options.minimize_after_query = true;
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession session,
      QuerySession::FromInstance(std::move(instance), options));

  const char* queries[] = {"//b/following-sibling::b/parent::a", "//a[b]",
                           "//b/preceding-sibling::b", "//a"};
  for (const char* query : queries) {
    SCOPED_TRACE(query);
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome outcome,
                             session.Run(query));
    EXPECT_GT(outcome.selected_tree_nodes, 0u);
    XCQ_ASSERT_OK(session.instance().Validate());
    ExpectMatchesFullMinimize(session.instance());
  }
  EXPECT_EQ(session.source_parse_count(), 0u);
}

TEST(MinimizeSessionTest, RepeatedNonSplittingQueryRunsNoPass) {
  SessionOptions options;
  options.minimize_after_query = true;
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open(testing::BibExampleXml(),
                                              options));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome first, session.Run("//book"));
  const size_t vertices = session.instance().vertex_count();
  const uint64_t generation = session.instance().structure_generation();

  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome again, session.Run("//book"));
  EXPECT_EQ(again.stats.splits, 0u);
  EXPECT_EQ(again.selected_tree_nodes, first.selected_tree_nodes);
  EXPECT_EQ(again.minimize_seconds, 0.0);
  EXPECT_EQ(session.instance().vertex_count(), vertices);
  EXPECT_EQ(session.instance().structure_generation(), generation);
}

TEST(MinimizeSessionTest, ClearedResultMergesEarlierSplitCopies) {
  SessionOptions options;
  options.minimize_after_query = true;
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession session,
      QuerySession::Open("<r><a><b/><b/><b/></a><a><b/><b/><b/></a></r>",
                         options));
  // The split b copies stay apart after the pass: only they carry the
  // result bit.
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome split,
                           session.Run("//b/following-sibling::b"));
  EXPECT_GT(split.stats.splits, 0u);
  EXPECT_GT(split.minimize_seconds, 0.0);
  const size_t split_reachable = session.instance().ReachableCount();

  // Same labels, no split, empty result: clearing the bit is the only
  // change, and the pass must still run to fold the copies back.
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome cleared,
                           session.Run("//b/parent::b"));
  EXPECT_EQ(cleared.stats.splits, 0u);
  EXPECT_EQ(cleared.selected_tree_nodes, 0u);
  EXPECT_LT(session.instance().ReachableCount(), split_reachable);
  XCQ_ASSERT_OK_AND_ASSIGN(const bool minimal,
                           IsMinimal(session.instance()));
  EXPECT_TRUE(minimal);
}

}  // namespace
}  // namespace xcq
