#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/instance/instance.h"
#include "xcq/instance/instance_io.h"
#include "xcq/instance/schema.h"
#include "xcq/instance/stats.h"

namespace xcq {
namespace {

/// Builds the Fig. 2 (a) instance: bib with one shared book/paper layout.
///   v3, v5 leaves; v2 = book(v3 v5 v5 v5); v4 = paper(v3 v5); v1 = bib.
Instance Fig2Instance() {
  Instance inst;
  const VertexId v3 = inst.AddVertex();  // title
  const VertexId v5 = inst.AddVertex();  // author
  const VertexId v2 = inst.AddVertex();  // book
  const VertexId v4 = inst.AddVertex();  // paper
  const VertexId v1 = inst.AddVertex();  // bib
  const std::vector<Edge> book = {{v3, 1}, {v5, 3}};
  const std::vector<Edge> paper = {{v3, 1}, {v5, 1}};
  const std::vector<Edge> bib = {{v2, 1}, {v4, 2}};
  inst.SetEdges(v2, book);
  inst.SetEdges(v4, paper);
  inst.SetEdges(v1, bib);
  inst.SetRoot(v1);
  inst.SetBit(inst.AddRelation("Sbib"), v1);
  inst.SetBit(inst.AddRelation("Sbook"), v2);
  inst.SetBit(inst.AddRelation("Spaper"), v4);
  inst.SetBit(inst.AddRelation("Stitle"), v3);
  inst.SetBit(inst.AddRelation("Sauthor"), v5);
  return inst;
}

TEST(SchemaTest, InternFindRemove) {
  Schema schema;
  const RelationId a = schema.Intern("A");
  const RelationId b = schema.Intern("B");
  EXPECT_NE(a, b);
  EXPECT_EQ(schema.Intern("A"), a);
  EXPECT_EQ(schema.Find("B"), b);
  EXPECT_EQ(schema.live_count(), 2u);
  EXPECT_TRUE(schema.Remove("A"));
  EXPECT_FALSE(schema.Remove("A"));
  EXPECT_EQ(schema.Find("A"), kNoRelation);
  EXPECT_EQ(schema.live_count(), 1u);
  // Ids are stable across removals.
  EXPECT_EQ(schema.Find("B"), b);
  const RelationId a2 = schema.Intern("A");
  EXPECT_NE(a2, a);  // fresh slot
  EXPECT_EQ(schema.LiveNames().size(), 2u);
}

TEST(SchemaTest, StringRelationNames) {
  const std::string name = Schema::StringRelationName("Codd");
  std::string_view pattern;
  ASSERT_TRUE(Schema::ParseStringRelationName(name, &pattern));
  EXPECT_EQ(pattern, "Codd");
  EXPECT_FALSE(Schema::ParseStringRelationName("Codd", &pattern));
}

TEST(InstanceTest, Fig2StructureAndCounts) {
  Instance inst = Fig2Instance();
  XCQ_ASSERT_OK(inst.Validate());
  EXPECT_EQ(inst.vertex_count(), 5u);
  EXPECT_EQ(inst.rle_edge_count(), 6u);       // Fig. 1 (c) edges
  EXPECT_EQ(ExpandedDagEdgeCount(inst), 9u);  // Fig. 1 (b) edges
  // Tree: bib + book + 2 papers + (1+3) + 2*(1+1) = 12 nodes.
  EXPECT_EQ(TreeNodeCount(inst), 12u);
  EXPECT_EQ(TreeEdgeCount(inst), 11u);
}

TEST(InstanceTest, PathCounts) {
  Instance inst = Fig2Instance();
  const std::vector<uint64_t> paths = PathCounts(inst);
  EXPECT_EQ(paths[4], 1u);  // bib (root)
  EXPECT_EQ(paths[2], 1u);  // book
  EXPECT_EQ(paths[3], 2u);  // paper x2
  EXPECT_EQ(paths[0], 3u);  // title: book + 2 papers
  EXPECT_EQ(paths[1], 5u);  // author: 3 in book + 1 in each paper
}

TEST(InstanceTest, SelectedCounts) {
  Instance inst = Fig2Instance();
  const RelationId author = inst.FindRelation("Sauthor");
  ASSERT_NE(author, kNoRelation);
  EXPECT_EQ(SelectedDagNodeCount(inst, author), 1u);
  EXPECT_EQ(SelectedTreeNodeCount(inst, author), 5u);
}

TEST(InstanceTest, CloneCopiesEdgesAndBits) {
  Instance inst = Fig2Instance();
  const RelationId book_rel = inst.FindRelation("Sbook");
  const VertexId clone = inst.CloneVertex(2);  // v2 = book
  EXPECT_EQ(inst.vertex_count(), 6u);
  EXPECT_TRUE(inst.Test(book_rel, clone));
  ASSERT_EQ(inst.Children(clone).size(), 2u);
  EXPECT_EQ(inst.Children(clone)[1].count, 3u);
  // Mutating the clone's edges must not affect the original.
  inst.MutableChildren(clone)[0].count = 7;
  EXPECT_EQ(inst.Children(2)[0].count, 1u);
}

TEST(InstanceTest, SetEdgesAliasedInputIsSafe) {
  Instance inst = Fig2Instance();
  // Give bib the same children as book, passing book's own span.
  inst.SetEdges(4, inst.Children(2));
  ASSERT_EQ(inst.Children(4).size(), 2u);
  EXPECT_EQ(inst.Children(4)[1].count, 3u);
  XCQ_ASSERT_OK(inst.Validate());
}

TEST(InstanceTest, TopologicalOrders) {
  Instance inst = Fig2Instance();
  const std::vector<VertexId> topo = inst.TopologicalOrder();
  ASSERT_EQ(topo.size(), 5u);
  EXPECT_EQ(topo.front(), inst.root());
  std::vector<size_t> position(inst.vertex_count());
  for (size_t i = 0; i < topo.size(); ++i) position[topo[i]] = i;
  for (VertexId v = 0; v < inst.vertex_count(); ++v) {
    for (const Edge& e : inst.Children(v)) {
      EXPECT_LT(position[v], position[e.child]);
    }
  }
  const std::vector<VertexId> post = inst.PostOrder();
  EXPECT_EQ(post.back(), inst.root());
}

TEST(InstanceTest, UnreachableVerticesExcludedFromReachable) {
  Instance inst = Fig2Instance();
  inst.AddVertex();  // orphan
  EXPECT_EQ(inst.vertex_count(), 6u);
  EXPECT_EQ(inst.ReachableCount(), 5u);
}

TEST(InstanceTest, ValidateRejectsCycle) {
  Instance inst;
  const VertexId a = inst.AddVertex();
  const VertexId b = inst.AddVertex();
  const std::vector<Edge> ea = {{b, 1}};
  const std::vector<Edge> eb = {{a, 1}};
  inst.SetEdges(a, ea);
  inst.SetEdges(b, eb);
  inst.SetRoot(a);
  EXPECT_EQ(inst.Validate().code(), StatusCode::kCorruption);
}

TEST(InstanceTest, ValidateRejectsNonCanonicalRle) {
  Instance inst;
  const VertexId leaf = inst.AddVertex();
  const VertexId root = inst.AddVertex();
  const std::vector<Edge> edges = {{leaf, 1}, {leaf, 2}};
  inst.SetEdges(root, edges);
  inst.SetRoot(root);
  EXPECT_EQ(inst.Validate().code(), StatusCode::kCorruption);
}

TEST(InstanceTest, ValidateRejectsZeroCount) {
  Instance inst;
  const VertexId leaf = inst.AddVertex();
  const VertexId root = inst.AddVertex();
  const std::vector<Edge> edges = {{leaf, 0}};
  inst.SetEdges(root, edges);
  inst.SetRoot(root);
  EXPECT_EQ(inst.Validate().code(), StatusCode::kCorruption);
}

// Validate memoizes its structural pass on the structure generation;
// these pin that the memo never outlives the structure it vouched for.

TEST(InstanceTest, ValidateMemoRearmsWhenAnEdgeClosesACycle) {
  Instance inst = Fig2Instance();
  XCQ_ASSERT_OK(inst.Validate());
  XCQ_ASSERT_OK(inst.Validate());  // memo hit
  // v3 (a leaf under book and paper) now points back at the root.
  const std::vector<Edge> back = {{4, 1}};
  inst.SetEdges(0, back);
  EXPECT_EQ(inst.Validate().code(), StatusCode::kCorruption);
}

TEST(InstanceTest, ValidateMemoRearmsWhenAnEdgeLeavesTheIdRange) {
  Instance inst = Fig2Instance();
  XCQ_ASSERT_OK(inst.Validate());
  const std::vector<Edge> dangling = {{static_cast<VertexId>(99), 1}};
  inst.SetEdges(0, dangling);
  EXPECT_EQ(inst.Validate().code(), StatusCode::kCorruption);
}

TEST(InstanceTest, ValidateMemoStillChecksColumnSizes) {
  Instance inst = Fig2Instance();
  XCQ_ASSERT_OK(inst.Validate());
  // A column write is not structural: no generation bump, yet the
  // size check must still run.
  inst.MutableRelationBits(inst.FindRelation("Sbib"))
      .Resize(inst.vertex_count() + 1);
  EXPECT_EQ(inst.Validate().code(), StatusCode::kCorruption);
}

TEST(InstanceTest, CopyOfValidatedInstanceValidates) {
  Instance inst = Fig2Instance();
  XCQ_ASSERT_OK(inst.Validate());
  Instance copy = inst;
  XCQ_EXPECT_OK(copy.Validate());
  // The copy's memo is its own: mutating it re-arms only the copy.
  const std::vector<Edge> back = {{4, 1}};
  copy.SetEdges(0, back);
  EXPECT_EQ(copy.Validate().code(), StatusCode::kCorruption);
  XCQ_EXPECT_OK(inst.Validate());
}

TEST(InstanceTest, CompactEdgesPreservesStructure) {
  Instance inst = Fig2Instance();
  // Force span churn.
  for (int i = 0; i < 10; ++i) {
    const std::vector<Edge> edges = {{0, 1}, {1, static_cast<uint64_t>(i + 2)}};
    inst.SetEdges(2, edges);
  }
  const uint64_t before = inst.rle_edge_count();
  inst.CompactEdges();
  EXPECT_EQ(inst.rle_edge_count(), before);
  XCQ_ASSERT_OK(inst.Validate());
  EXPECT_EQ(inst.Children(2)[1].count, 11u);
}

TEST(InstanceTest, RemoveRelationTombstones) {
  Instance inst = Fig2Instance();
  const RelationId before = inst.FindRelation("Stitle");
  ASSERT_NE(before, kNoRelation);
  EXPECT_TRUE(inst.RemoveRelation("Stitle"));
  EXPECT_EQ(inst.FindRelation("Stitle"), kNoRelation);
  EXPECT_FALSE(inst.RemoveRelation("Stitle"));
  // Live relations skip the tombstone; other ids unchanged.
  for (RelationId r : inst.LiveRelations()) EXPECT_NE(r, before);
}

TEST(InstanceTest, CloneAfterRelationRemovalIsSafe) {
  // Regression: tombstoned relation columns are empty; vertex growth
  // must skip them instead of reading their (missing) bits.
  Instance inst = Fig2Instance();
  ASSERT_TRUE(inst.RemoveRelation("Stitle"));
  const VertexId clone = inst.CloneVertex(2);
  const VertexId fresh = inst.AddVertex();
  (void)clone;
  (void)fresh;
  XCQ_ASSERT_OK(inst.Validate());
  // Live relations keep tracking new vertices.
  const RelationId book_rel = inst.FindRelation("Sbook");
  EXPECT_TRUE(inst.Test(book_rel, clone));
  EXPECT_FALSE(inst.Test(book_rel, fresh));
}

TEST(InstanceTest, AppendEdgeRleMerges) {
  std::vector<Edge> edges;
  AppendEdgeRle(&edges, {3, 1});
  AppendEdgeRle(&edges, {3, 2});
  AppendEdgeRle(&edges, {4, 1});
  AppendEdgeRle(&edges, {3, 1});
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].count, 3u);
  EXPECT_EQ(edges[1].child, 4u);
  EXPECT_EQ(edges[2].child, 3u);
}

// --- Saturating arithmetic / huge instances ----------------------------------

TEST(StatsTest, SaturatingOps) {
  const uint64_t max = UINT64_MAX;
  EXPECT_EQ(SaturatingAdd(max, 1), max);
  EXPECT_EQ(SaturatingAdd(1, 2), 3u);
  EXPECT_EQ(SaturatingMul(max, 2), max);
  EXPECT_EQ(SaturatingMul(0, max), 0u);
  EXPECT_EQ(SaturatingMul(3, 4), 12u);
}

TEST(StatsTest, DoublyExponentialCountSaturates) {
  // Chain of 100 vertices, each with an edge of multiplicity 2^8 to the
  // next: tree size ~ 256^100 — must saturate, not overflow.
  Instance inst;
  VertexId prev = inst.AddVertex();
  for (int i = 0; i < 100; ++i) {
    const VertexId next = inst.AddVertex();
    const std::vector<Edge> edges = {{prev, 256}};
    inst.SetEdges(next, edges);
    prev = next;
  }
  inst.SetRoot(prev);
  EXPECT_EQ(TreeNodeCount(inst), UINT64_MAX);
  const std::vector<uint64_t> paths = PathCounts(inst);
  EXPECT_EQ(paths[0], UINT64_MAX);
}

TEST(StatsTest, CompressionStatsFields) {
  const Instance inst = Fig2Instance();
  const CompressionStats stats = ComputeCompressionStats(inst);
  EXPECT_EQ(stats.tree_nodes, 12u);
  EXPECT_EQ(stats.dag_vertices, 5u);
  EXPECT_EQ(stats.dag_rle_edges, 6u);
  EXPECT_NEAR(stats.edge_ratio, 6.0 / 11.0, 1e-9);
}

TEST(StatsTest, MemoryFootprintGrowsWithContent) {
  Instance small = Fig2Instance();
  const size_t before = small.MemoryFootprint();
  for (int i = 0; i < 100; ++i) small.CloneVertex(0);
  EXPECT_GT(small.MemoryFootprint(), before);
}

// --- Serialization -----------------------------------------------------------

TEST(InstanceIoTest, RoundTrip) {
  const Instance original = Fig2Instance();
  const std::string bytes = SerializeInstanceChecksummed(original);
  XCQ_ASSERT_OK_AND_ASSIGN(Instance loaded, DeserializeInstance(bytes));
  XCQ_ASSERT_OK_AND_ASSIGN(const bool equivalent,
                           AreEquivalent(original, loaded));
  EXPECT_TRUE(equivalent);
  EXPECT_EQ(loaded.vertex_count(), original.vertex_count());
  EXPECT_EQ(loaded.rle_edge_count(), original.rle_edge_count());
  // Renumbered in post-order, so the root is the last vertex.
  EXPECT_EQ(loaded.root(), loaded.vertex_count() - 1);
  EXPECT_EQ(loaded.schema().live_count(),
            original.schema().live_count());
}

TEST(InstanceIoTest, RoundTripThroughFile) {
  const Instance original = Fig2Instance();
  const std::string path = ::testing::TempDir() + "/xcq_io_test.bin";
  XCQ_ASSERT_OK(SaveInstance(original, path));
  XCQ_ASSERT_OK_AND_ASSIGN(Instance loaded, LoadInstance(path));
  XCQ_ASSERT_OK_AND_ASSIGN(const bool equivalent,
                           AreEquivalent(original, loaded));
  EXPECT_TRUE(equivalent);
}

TEST(InstanceIoTest, RejectsBadMagic) {
  EXPECT_EQ(DeserializeInstance("NOPE....").status().code(),
            StatusCode::kCorruption);
}

TEST(InstanceIoTest, RejectsTruncation) {
  const std::string bytes = SerializeInstanceChecksummed(Fig2Instance());
  for (const size_t cut : std::vector<size_t>{4, 8, 12, bytes.size() / 2,
                                              bytes.size() - 1}) {
    EXPECT_FALSE(DeserializeInstance(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(InstanceIoTest, RejectsTrailingGarbage) {
  const std::string bytes = SerializeInstanceChecksummed(Fig2Instance()) + "x";
  EXPECT_EQ(DeserializeInstance(bytes).status().code(),
            StatusCode::kCorruption);
}

TEST(InstanceIoTest, RejectsCorruptedEdgeTarget) {
  std::string bytes = SerializeInstanceChecksummed(Fig2Instance());
  // Flip bytes until validation trips somewhere; at minimum the loader
  // must never crash and must keep returning sane statuses.
  int failures = 0;
  for (size_t i = 8; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x7F);
    auto result = DeserializeInstance(mutated);
    if (!result.ok()) ++failures;
  }
  EXPECT_GT(failures, 0);
}

TEST(InstanceIoTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadInstance("/nonexistent/xcq.bin").status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace xcq
