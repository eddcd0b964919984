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

TEST(DirtyTrackingTest, RecordsClonesEditsAndExplicitMarks) {
  Instance instance = CompressAllTags("<r><a><b/><b/></a><a><b/><b/></a></r>");
  EXPECT_FALSE(instance.dirty_tracking());
  instance.SetDirtyTracking(true);

  // An unchanged rewrite is not dirty; a changed one is.
  std::vector<Edge> same(instance.Children(instance.root()).begin(),
                         instance.Children(instance.root()).end());
  instance.SetEdges(instance.root(), same);
  EXPECT_EQ(instance.dirty_count(), 0u);

  const VertexId clone = instance.CloneVertex(instance.root());
  instance.MarkVertexDirty(clone);  // duplicate marks collapse
  instance.MarkVertexDirty(0);
  std::vector<VertexId> dirty = instance.TakeDirtyVertices();
  EXPECT_EQ(dirty.size(), 2u);
  EXPECT_EQ(instance.dirty_count(), 0u);

  // Tracking off: nothing is recorded.
  instance.SetDirtyTracking(false);
  instance.CloneVertex(instance.root());
  EXPECT_EQ(instance.dirty_count(), 0u);
}

TEST(MinimizeInPlaceTest, ReseedMatchesFullMinimize) {
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
  InPlaceMinimizeOptions options;
  options.compact_garbage_ratio = 0;  // keep the in-place result as-is
  XCQ_ASSERT_OK(MinimizeInPlace(&instance, options, &mstats));
  EXPECT_TRUE(mstats.reseeded);
  EXPECT_FALSE(mstats.skipped);

  EXPECT_EQ(instance.ReachableCount(), full.vertex_count());
  EXPECT_EQ(instance.ReachableEdgeCount(), full.rle_edge_count());
  XCQ_ASSERT_OK(instance.Validate());
  XCQ_ASSERT_OK_AND_ASSIGN(const bool minimal, IsMinimal(instance));
  EXPECT_TRUE(minimal);
  XCQ_ASSERT_OK_AND_ASSIGN(const bool equivalent,
                           AreEquivalent(instance, full));
  EXPECT_TRUE(equivalent);
}

TEST(MinimizeInPlaceTest, SecondCallWithNoDirtSkips) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  InPlaceMinimizeStats mstats;
  XCQ_ASSERT_OK(MinimizeInPlace(&instance, {}, &mstats));
  EXPECT_TRUE(mstats.reseeded);
  XCQ_ASSERT_OK(MinimizeInPlace(&instance, {}, &mstats));
  EXPECT_TRUE(mstats.skipped);
  EXPECT_EQ(mstats.dirty, 0u);
}

TEST(MinimizeInPlaceTest, GarbageRatioTriggersCompaction) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  XCQ_ASSERT_OK(MinimizeInPlace(&instance, {}, nullptr));  // seed cache

  // Manufacture unreachable garbage: clones never linked to a parent.
  instance.SetDirtyTracking(true);
  for (int i = 0; i < 8; ++i) instance.CloneVertex(instance.root());
  const size_t grown = instance.vertex_count();

  InPlaceMinimizeOptions options;
  options.compact_garbage_ratio = 0.05;
  InPlaceMinimizeStats mstats;
  XCQ_ASSERT_OK(MinimizeInPlace(&instance, options, &mstats));
  EXPECT_TRUE(mstats.compacted);
  EXPECT_LT(instance.vertex_count(), grown);
  EXPECT_EQ(instance.vertex_count(), instance.ReachableCount());
  XCQ_ASSERT_OK(instance.Validate());
}

TEST(MinimizeInPlaceTest, RejectsEmptyInstance) {
  Instance empty;
  EXPECT_EQ(MinimizeInPlace(&empty, {}, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MinimizeInPlace(nullptr, {}, nullptr).code(),
            StatusCode::kInvalidArgument);
}

/// Full-minimizes a copy of `instance` and asserts the incremental pass
/// already left it minimal: the copy's size equals the reachable part,
/// and the result relation selects the same DAG and tree nodes.
void ExpectMatchesFullMinimize(const Instance& instance) {
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance full, Minimize(instance));
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

/// The incremental session must be indistinguishable from the full-pass
/// session, query by query: identical outcomes and identical reachable
/// instance sizes. Every incremental pass is additionally cross-checked
/// against a full minimize of its own instance.
void RunEquivalenceSequence(const std::string& xml,
                            const std::vector<std::string>& queries) {
  SessionOptions plain;  // no reclaim: the control for outcome counts
  SessionOptions full;
  full.minimize_after_query = true;
  full.incremental_minimize = false;
  SessionOptions incremental;
  incremental.minimize_after_query = true;
  incremental.incremental_minimize = true;

  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession plain_session,
                           QuerySession::Open(xml, plain));
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession full_session,
                           QuerySession::Open(xml, full));
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession incremental_session,
                           QuerySession::Open(xml, incremental));

  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome p, plain_session.Run(query));
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome f, full_session.Run(query));
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome i,
                             incremental_session.Run(query));
    // Tree-node counts are invariant under (re)compression; DAG-node
    // counts are not (a more-compressed instance selects fewer, larger
    // vertices), so the no-reclaim control only pins the former.
    EXPECT_EQ(p.selected_tree_nodes, f.selected_tree_nodes);
    EXPECT_EQ(f.selected_tree_nodes, i.selected_tree_nodes);
    EXPECT_EQ(f.selected_dag_nodes, i.selected_dag_nodes);

    // Reachable structure: the minimal instance is unique, so both
    // reclaim modes must land on the same vertex and edge counts.
    EXPECT_EQ(incremental_session.instance().ReachableCount(),
              full_session.instance().vertex_count());
    EXPECT_EQ(incremental_session.instance().ReachableEdgeCount(),
              full_session.instance().rle_edge_count());
    XCQ_ASSERT_OK(incremental_session.instance().Validate());
    ExpectMatchesFullMinimize(incremental_session.instance());
  }
  XCQ_ASSERT_OK_AND_ASSIGN(
      const bool equivalent,
      AreEquivalent(incremental_session.instance(),
                    full_session.instance()));
  EXPECT_TRUE(equivalent);
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
  // Incremental reclaim over a .xcqi-style session: no source document,
  // labels recovered from the instance, zero re-parses throughout.
  Instance instance =
      CompressAllTags("<r><a><b/><b/><b/></a><a><b/><b/><b/></a></r>");
  SessionOptions options;
  options.minimize_after_query = true;
  options.incremental_minimize = true;
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

}  // namespace
}  // namespace xcq
