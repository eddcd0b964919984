// The Instance traversal cache (docs/INTERNALS.md §8) and the resident
// scratch-relation pool.
//
// The cache memoizes the post-order, path counts and parent index every
// sweep and decode starts from; a wrong invalidation would silently corrupt
// query answers, so the property tested throughout is: after ANY
// mutation sequence, the cached order equals a fresh `PostOrder()`
// oracle walk (and the derived sections equal recomputations). The
// scratch pool backs per-op query temporaries; its contract is zero
// schema churn per query and graceful fallback to allocation when a
// plan needs more columns than the pool keeps resident.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"
#include "xcq/engine/axes.h"
#include "xcq/util/rng.h"

namespace xcq {
namespace {

Instance CompressAllTags(const std::string& xml) {
  CompressOptions options;  // LabelMode::kAllTags by default
  auto result = CompressXml(xml, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).Value();
}

/// Asserts the parent index against the reachable edges: each reachable
/// vertex's position in a fresh walk, and for each position the sorted
/// positions of its parents, one per RLE edge into it.
void ExpectParentIndexMatchesOracle(const Instance& instance) {
  const std::vector<VertexId> oracle = instance.PostOrder();
  const TraversalCache& t = instance.EnsureParentIndex();
  ASSERT_TRUE(t.has_parents);
  std::vector<uint32_t> position(instance.vertex_count(),
                                 TraversalCache::kNoPosition);
  for (size_t p = 0; p < oracle.size(); ++p) position[oracle[p]] = p;
  EXPECT_EQ(t.position, position);
  std::vector<std::vector<uint32_t>> parents(oracle.size());
  for (size_t p = 0; p < oracle.size(); ++p) {
    for (const Edge& e : instance.Children(oracle[p])) {
      parents[position[e.child]].push_back(static_cast<uint32_t>(p));
    }
  }
  ASSERT_EQ(t.parent_offsets.size(), oracle.size() + 1);
  EXPECT_EQ(t.parent_offsets.back(), t.parents.size());
  for (size_t p = 0; p < oracle.size(); ++p) {
    const std::vector<uint32_t> cached(
        t.parents.begin() + t.parent_offsets[p],
        t.parents.begin() + t.parent_offsets[p + 1]);
    EXPECT_EQ(cached, parents[p]) << "parents of " << oracle[p];
  }
}

/// Asserts every cached section against independent recomputation.
void ExpectCacheMatchesOracle(const Instance& instance) {
  const std::vector<VertexId> oracle = instance.PostOrder();
  const TraversalCache& t = instance.EnsureTraversal(/*need_path_counts=*/true);
  ASSERT_EQ(t.order, oracle);
  EXPECT_EQ(instance.ReachableCount(), oracle.size());

  uint64_t edges = 0;
  for (const VertexId v : oracle) edges += instance.Children(v).size();
  EXPECT_EQ(t.reachable_edges, edges);
  EXPECT_EQ(instance.ReachableEdgeCount(), edges);

  // Every child of a reachable vertex sits earlier in the order, so
  // the reverse order is parents-first: the property the downward
  // kernels and the path-count pass walk it back to front for.
  std::vector<size_t> position(instance.vertex_count(), oracle.size());
  for (size_t i = 0; i < t.order.size(); ++i) position[t.order[i]] = i;
  for (size_t i = 0; i < t.order.size(); ++i) {
    for (const Edge& e : instance.Children(t.order[i])) {
      ASSERT_LT(position[e.child], i)
          << "child " << e.child << " of " << t.order[i];
    }
  }

  // Path counts against the stats.h decode (which itself reads the
  // cache, so recompute by hand from the topological order).
  std::vector<uint64_t> paths(instance.vertex_count(), 0);
  if (!oracle.empty()) {
    paths[instance.root()] = 1;
    for (auto it = oracle.rbegin(); it != oracle.rend(); ++it) {
      for (const Edge& e : instance.Children(*it)) {
        paths[e.child] = SaturatingAdd(paths[e.child],
                                       SaturatingMul(paths[*it], e.count));
      }
    }
  }
  EXPECT_EQ(t.path_counts, paths);
  ExpectParentIndexMatchesOracle(instance);
}

TEST(TraversalCacheTest, RepeatedReadsDoNotRebuild) {
  const Instance instance = CompressAllTags(testing::BibExampleXml());
  const uint64_t builds_before = instance.traversal_builds();
  instance.EnsureTraversal(/*need_path_counts=*/true);
  instance.EnsureTraversal(/*need_path_counts=*/true);
  instance.EnsureTraversal();
  EXPECT_EQ(instance.traversal_builds(), builds_before + 1);
  EXPECT_TRUE(instance.traversal_cache_valid());
  ExpectCacheMatchesOracle(instance);
}

TEST(TraversalCacheTest, StructuralMutationsInvalidate) {
  Instance instance = CompressAllTags("<r><a><b/><b/></a><a><b/></a></r>");
  ExpectCacheMatchesOracle(instance);

  // Clone: new vertex, unreachable until linked.
  const VertexId clone = instance.CloneVertex(instance.root());
  EXPECT_FALSE(instance.traversal_cache_valid());
  ExpectCacheMatchesOracle(instance);

  // Edge rewrite that changes content.
  std::vector<Edge> edges(instance.Children(instance.root()).begin(),
                          instance.Children(instance.root()).end());
  edges.push_back(Edge{clone, 2});
  instance.SetEdges(instance.root(), edges);
  EXPECT_FALSE(instance.traversal_cache_valid());
  ExpectCacheMatchesOracle(instance);

  // Root move.
  const VertexId old_root = instance.root();
  instance.SetRoot(clone);
  EXPECT_FALSE(instance.traversal_cache_valid());
  ExpectCacheMatchesOracle(instance);
  instance.SetRoot(old_root);
  ExpectCacheMatchesOracle(instance);

  // MutableChildren invalidates conservatively even without a write.
  instance.EnsureTraversal();
  (void)instance.MutableChildren(old_root);
  EXPECT_FALSE(instance.traversal_cache_valid());
  ExpectCacheMatchesOracle(instance);
}

TEST(TraversalCacheTest, NonStructuralChangesKeepCacheValid) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  instance.EnsureTraversal(/*need_path_counts=*/true);
  const uint64_t builds = instance.traversal_builds();

  // Relation membership and schema changes are not structural.
  const RelationId r = instance.AddRelation("probe");
  instance.SetBit(r, instance.root());
  instance.MutableRelationBits(r).ResetAll();
  EXPECT_TRUE(instance.RemoveRelation("probe"));
  EXPECT_TRUE(instance.traversal_cache_valid());

  // An identical rewrite is recognized and kept cheap.
  std::vector<Edge> same(instance.Children(instance.root()).begin(),
                         instance.Children(instance.root()).end());
  instance.SetEdges(instance.root(), same);
  EXPECT_TRUE(instance.traversal_cache_valid());

  // Compaction moves spans but no child sequence changes.
  instance.CompactEdges();
  EXPECT_TRUE(instance.traversal_cache_valid());

  EXPECT_EQ(instance.traversal_builds(), builds);
  ExpectCacheMatchesOracle(instance);
}

TEST(TraversalCacheTest, DecodedSpillAdoptsFileOrderWithoutAWalk) {
  // A decoded spill's cache holds the file order; for a spill the
  // writer produced that is exactly the DFS post-order, so the oracle
  // agrees with no rebuild. Splits first, so the spill drops garbage.
  Instance instance = CompressAllTags(testing::BibExampleXml());
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("//paper/author"));
  XCQ_ASSERT_OK(engine::Evaluate(&instance, plan, {}, nullptr).status());
  XCQ_ASSERT_OK_AND_ASSIGN(
      Instance decoded,
      DeserializeInstance(SerializeInstanceChecksummed(instance)));
  EXPECT_TRUE(decoded.traversal_cache_valid());
  ExpectCacheMatchesOracle(decoded);
  EXPECT_EQ(decoded.traversal_builds(), 0u);

  // The adopted cache invalidates like a built one.
  decoded.CloneVertex(decoded.root());
  EXPECT_FALSE(decoded.traversal_cache_valid());
  ExpectCacheMatchesOracle(decoded);
  EXPECT_EQ(decoded.traversal_builds(), 1u);
}

TEST(TraversalCacheTest, StructuralMutationsDropTheParentIndex) {
  Instance instance = CompressAllTags("<r><a><b/><b/></a><a><b/></a></r>");
  instance.EnsureParentIndex();
  const auto dropped = [&] { return !instance.EnsureTraversal().has_parents; };

  const VertexId clone = instance.CloneVertex(instance.root());
  EXPECT_TRUE(dropped());
  ExpectParentIndexMatchesOracle(instance);

  std::vector<Edge> edges(instance.Children(instance.root()).begin(),
                          instance.Children(instance.root()).end());
  edges.push_back(Edge{clone, 2});
  instance.SetEdges(instance.root(), edges);
  EXPECT_TRUE(dropped());
  ExpectParentIndexMatchesOracle(instance);

  instance.SetRoot(clone);
  EXPECT_TRUE(dropped());
  ExpectParentIndexMatchesOracle(instance);
}

TEST(TraversalCacheTest, ParentIndexIsCountedInTheFootprint) {
  const Instance instance = CompressAllTags(testing::BibExampleXml());
  instance.EnsureTraversal();
  const size_t before = instance.MemoryFootprint();
  const TraversalCache& t = instance.EnsureParentIndex();
  EXPECT_EQ(instance.MemoryFootprint() - before,
            (t.position.capacity() + t.parent_offsets.capacity() +
             t.parents.capacity()) *
                sizeof(uint32_t));
  EXPECT_GT(t.parents.size(), 0u);
}

TEST(TraversalCacheTest, DecodedSpillBuildsParentIndexOnFirstUpwardSweep) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  XCQ_ASSERT_OK_AND_ASSIGN(
      Instance decoded,
      DeserializeInstance(SerializeInstanceChecksummed(instance)));
  EXPECT_FALSE(decoded.EnsureTraversal().has_parents);
  const RelationId src = decoded.FindRelation("author");
  ASSERT_NE(src, kNoRelation);
  const RelationId dst = decoded.AddRelation("test:dst");
  const engine::SweepLane lane{.src = src, .dst = dst};
  XCQ_ASSERT_OK(
      engine::SweepUpward(&decoded, xpath::Axis::kAncestor, {&lane, 1}));
  EXPECT_TRUE(decoded.EnsureTraversal().has_parents);
  EXPECT_EQ(decoded.traversal_builds(), 0u);
  ExpectParentIndexMatchesOracle(decoded);
  EXPECT_EQ(decoded.traversal_builds(), 0u);
}

TEST(ScratchPoolTest, ResidentColumnsAreReusedWithoutAllocation) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  const RelationId a = instance.AcquireScratchRelation();
  const RelationId b = instance.AcquireScratchRelation();
  EXPECT_NE(a, b);
  EXPECT_EQ(instance.scratch_stats().allocations, 2u);
  instance.SetBit(a, instance.root());
  instance.ReleaseScratchRelation(a);
  instance.ReleaseScratchRelation(b);

  // Round 2: both served from the pool, zeroed, no new storage.
  const RelationId a2 = instance.AcquireScratchRelation();
  const RelationId b2 = instance.AcquireScratchRelation();
  EXPECT_EQ(instance.scratch_stats().allocations, 2u);
  EXPECT_EQ(instance.scratch_stats().pool_hits, 2u);
  EXPECT_FALSE(instance.RelationBits(a2).Any());
  EXPECT_FALSE(instance.RelationBits(b2).Any());
  instance.ReleaseScratchRelation(a2);
  instance.ReleaseScratchRelation(b2);

  // Scratch columns are invisible to the live schema and serialization.
  for (const RelationId live : instance.LiveRelations()) {
    EXPECT_FALSE(instance.schema().Name(live).empty());
  }
  EXPECT_EQ(instance.scratch_slot_count(), 2u);
  XCQ_ASSERT_OK(instance.Validate());
}

TEST(ScratchPoolTest, ScratchColumnsFollowSplits) {
  Instance instance = CompressAllTags("<r><a><b/></a><a><b/></a></r>");
  const RelationId s = instance.AcquireScratchRelation();
  instance.SetBit(s, instance.root());
  const VertexId child = instance.Children(instance.root())[0].child;
  instance.SetBit(s, child);
  const VertexId clone = instance.CloneVertex(child);
  // The clone carries the scratch bit — in-flight selections must stay
  // consistent across partial decompression.
  EXPECT_TRUE(instance.Test(s, clone));
  EXPECT_EQ(instance.RelationBits(s).size(), instance.vertex_count());
  instance.ReleaseScratchRelation(s);
  XCQ_ASSERT_OK(instance.Validate());
}

TEST(ScratchPoolTest, ExhaustionFallsBackToAllocationWithAStat) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  instance.set_scratch_capacity(2);

  std::vector<RelationId> held;
  for (int i = 0; i < 5; ++i) {
    held.push_back(instance.AcquireScratchRelation());
  }
  EXPECT_EQ(instance.scratch_stats().allocations, 5u);
  for (const RelationId id : held) instance.ReleaseScratchRelation(id);
  EXPECT_EQ(instance.scratch_stats().releases, 5u);

  // Two stay resident; three were parked with storage released. A new
  // wave of five: two pool hits, three reallocations — never a failure.
  held.clear();
  for (int i = 0; i < 5; ++i) {
    held.push_back(instance.AcquireScratchRelation());
  }
  EXPECT_EQ(instance.scratch_stats().pool_hits, 2u);
  EXPECT_EQ(instance.scratch_stats().allocations, 8u);
  EXPECT_EQ(instance.scratch_slot_count(), 5u);  // slots are reused
  for (const RelationId id : held) instance.ReleaseScratchRelation(id);
  XCQ_ASSERT_OK(instance.Validate());
}

TEST(ScratchPoolTest, EvaluatorStopsChurningSchema) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  XCQ_ASSERT_OK_AND_ASSIGN(
      const algebra::QueryPlan plan,
      algebra::CompileString("//paper/author/following::*"));

  // Warm-up query: interns the result relation, primes the pool.
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, nullptr)
          .status());
  const size_t schema_size = instance.schema().size();
  const uint64_t tombstones = instance.tombstones_added();
  const uint64_t allocations = instance.scratch_stats().allocations;

  // Steady state: zero interns, zero tombstones, zero column
  // allocations per query.
  for (int i = 0; i < 3; ++i) {
    XCQ_ASSERT_OK(
        engine::Evaluate(&instance, plan, engine::EvalOptions{}, nullptr)
            .status());
  }
  EXPECT_EQ(instance.schema().size(), schema_size);
  EXPECT_EQ(instance.tombstones_added(), tombstones);
  EXPECT_EQ(instance.scratch_stats().allocations, allocations);
  for (const std::string& name : instance.schema().LiveNames()) {
    EXPECT_EQ(name.find("xcq:tmp"), std::string::npos) << name;
  }
}

TEST(ScratchPoolTest, LongPlanReturnsColumnsAtTheirLastUse) {
  // A 40-step child path compiles to 82 ops, more than the 64 columns
  // the pool keeps resident. Each intermediate selection is read by the
  // next op only, so returning it at its last use keeps a handful of
  // columns live and a steady-state query allocates none.
  std::string xml;
  std::string query;
  for (int i = 0; i < 40; ++i) {
    xml += "<a>";
    query += "/a";
  }
  for (int i = 0; i < 40; ++i) xml += "</a>";
  Instance instance = CompressAllTags(xml);
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString(query));
  ASSERT_EQ(plan.ops.size(), 82u);

  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, nullptr)
          .status());
  const uint64_t allocations = instance.scratch_stats().allocations;
  for (int i = 0; i < 2; ++i) {
    XCQ_ASSERT_OK_AND_ASSIGN(
        const RelationId result,
        engine::Evaluate(&instance, plan, engine::EvalOptions{}, nullptr));
    EXPECT_EQ(SelectedTreeNodeCount(instance, result), 1u);
  }
  EXPECT_EQ(instance.scratch_stats().allocations, allocations);
}

// --- Property: cache == oracle across serving workloads --------------------

/// Drives a randomized query sequence through a session and checks the
/// cache-vs-oracle property after every query. `minimize` additionally
/// exercises MinimizeInPlace (with its compaction step) between
/// queries.
void RunOracleSequence(const std::string& xml,
                       const std::vector<std::string>& queries,
                       bool minimize) {
  SessionOptions options;
  options.minimize_after_query = minimize;
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open(xml, options));
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    XCQ_ASSERT_OK(session.Run(query).status());
    ExpectCacheMatchesOracle(session.instance());
  }
}

TEST(TraversalCacheOracleTest, RandomizedSequencesOverEveryCorpus) {
  const std::vector<std::string> generic = {
      "//*/following-sibling::*",
      "//*",
      "/*",
      "//*/preceding-sibling::*/parent::*",
  };

  size_t corpus_index = 0;
  for (const corpus::CorpusGenerator* generator : corpus::AllCorpora()) {
    SCOPED_TRACE(std::string(generator->name()));
    corpus::GenerateOptions gen;
    gen.target_nodes = 900;
    gen.seed = 31 + corpus_index;
    const std::string xml = generator->Generate(gen);

    std::vector<std::string> pool = generic;
    const Result<corpus::QuerySet> set =
        corpus::QueriesFor(generator->name());
    if (set.ok()) {
      for (const std::string_view q : set->queries) pool.emplace_back(q);
    }
    Rng rng(4321 + corpus_index);
    std::vector<std::string> sequence;
    for (int i = 0; i < 6; ++i) sequence.push_back(rng.Pick(pool));

    RunOracleSequence(xml, sequence, /*minimize=*/false);
    RunOracleSequence(xml, sequence, /*minimize=*/true);
    ++corpus_index;
  }
}

}  // namespace
}  // namespace xcq
