#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"

namespace xcq {
namespace {

using testing::AlternatingBinaryTreeXml;
using testing::BibExampleXml;
using testing::RandomXml;

// --- Example 1.1 / Fig. 1 ----------------------------------------------------

TEST(CompressorTest, BibExampleBareMode) {
  CompressOptions options;
  options.mode = LabelMode::kNone;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst,
                           CompressXml(BibExampleXml(), options));
  XCQ_ASSERT_OK(inst.Validate());
  // Without tags, book(title,author,author,author) and the papers
  // (title,author) differ only in child counts; leaves all coincide:
  // leaf, paper-shape, book-shape, bib, #doc = 5 vertices.
  EXPECT_EQ(inst.ReachableCount(), 5u);
  EXPECT_EQ(TreeNodeCount(inst), 13u);  // 12 skeleton nodes + #doc
}

TEST(CompressorTest, BibExampleAllTags) {
  CompressOptions options;
  options.mode = LabelMode::kAllTags;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst,
                           CompressXml(BibExampleXml(), options));
  // Fig. 1 (b): title, author, book, paper, bib — plus our #doc: 6.
  EXPECT_EQ(inst.ReachableCount(), 6u);
  // Fig. 1 (c) edge structure: bib->book(1), bib->paper(2),
  // book->title(1), book->author(3), paper->title(1), paper->author(1),
  // plus #doc->bib: 7 RLE edges.
  EXPECT_EQ(inst.rle_edge_count(), 7u);
  // Relations present for every tag.
  for (const char* tag : {"bib", "book", "paper", "title", "author"}) {
    const RelationId r = inst.FindRelation(tag);
    ASSERT_NE(r, kNoRelation) << tag;
    EXPECT_GE(inst.RelationBits(r).Count(), 1u) << tag;
  }
  XCQ_ASSERT_OK_AND_ASSIGN(const bool minimal, IsMinimal(inst));
  EXPECT_TRUE(minimal);
}

TEST(CompressorTest, BibExampleEdgeMultiplicities) {
  CompressOptions options;
  options.mode = LabelMode::kAllTags;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst,
                           CompressXml(BibExampleXml(), options));
  const RelationId book = inst.FindRelation("book");
  const RelationId author = inst.FindRelation("author");
  ASSERT_NE(book, kNoRelation);
  // Find the book vertex and check its author run has multiplicity 3.
  bool found = false;
  for (VertexId v = 0; v < inst.vertex_count(); ++v) {
    if (!inst.Test(book, v)) continue;
    found = true;
    bool has_author_run = false;
    for (const Edge& e : inst.Children(v)) {
      if (inst.Test(author, e.child)) {
        EXPECT_EQ(e.count, 3u);
        has_author_run = true;
      }
    }
    EXPECT_TRUE(has_author_run);
  }
  EXPECT_TRUE(found);
}

// --- Minimality & idempotence -------------------------------------------------

TEST(CompressorTest, OutputIsMinimal) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const std::string xml = RandomXml(seed, 400, 4);
    XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml(xml, {}));
    XCQ_ASSERT_OK_AND_ASSIGN(const bool minimal, IsMinimal(inst));
    EXPECT_TRUE(minimal) << "seed " << seed;
  }
}

TEST(MinimizeTest, Idempotent) {
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst,
                           CompressXml(BibExampleXml(), {}));
  XCQ_ASSERT_OK_AND_ASSIGN(Instance once, Minimize(inst));
  XCQ_ASSERT_OK_AND_ASSIGN(Instance twice, Minimize(once));
  EXPECT_EQ(once.vertex_count(), twice.vertex_count());
  EXPECT_EQ(once.rle_edge_count(), twice.rle_edge_count());
  XCQ_ASSERT_OK_AND_ASSIGN(const bool equivalent,
                           AreEquivalent(once, twice));
  EXPECT_TRUE(equivalent);
}

TEST(MinimizeTest, TreeInstanceMinimizesToCompressorOutput) {
  for (uint64_t seed = 10; seed < 14; ++seed) {
    const std::string xml = RandomXml(seed, 300, 3);
    XCQ_ASSERT_OK_AND_ASSIGN(LabeledTree labeled, TreeBuilder::Build(xml));
    XCQ_ASSERT_OK_AND_ASSIGN(Instance tree_instance,
                             InstanceFromTree(labeled));
    XCQ_ASSERT_OK_AND_ASSIGN(Instance minimized, Minimize(tree_instance));

    CompressOptions options;
    options.mode = LabelMode::kAllTags;
    XCQ_ASSERT_OK_AND_ASSIGN(Instance streamed, CompressXml(xml, options));

    XCQ_ASSERT_OK_AND_ASSIGN(const bool equivalent,
                             AreEquivalent(minimized, streamed));
    EXPECT_TRUE(equivalent) << "seed " << seed;
    EXPECT_EQ(minimized.vertex_count(), streamed.ReachableCount());
  }
}

TEST(MinimizeTest, TreeInstanceEquivalentToItsMinimization) {
  const std::string xml = RandomXml(99, 200, 3);
  XCQ_ASSERT_OK_AND_ASSIGN(LabeledTree labeled, TreeBuilder::Build(xml));
  XCQ_ASSERT_OK_AND_ASSIGN(Instance tree_instance,
                           InstanceFromTree(labeled));
  XCQ_ASSERT_OK_AND_ASSIGN(Instance minimized, Minimize(tree_instance));
  EXPECT_LE(minimized.vertex_count(), tree_instance.vertex_count());
  XCQ_ASSERT_OK_AND_ASSIGN(const bool equivalent,
                           AreEquivalent(tree_instance, minimized));
  EXPECT_TRUE(equivalent);
}

// --- Round trips ---------------------------------------------------------------

TEST(DecompressTest, RoundTripPreservesShapeAndLabels) {
  for (uint64_t seed = 20; seed < 24; ++seed) {
    const std::string xml = RandomXml(seed, 300, 4);
    XCQ_ASSERT_OK_AND_ASSIGN(LabeledTree labeled, TreeBuilder::Build(xml));
    CompressOptions options;
    options.mode = LabelMode::kAllTags;
    XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml(xml, options));
    XCQ_ASSERT_OK_AND_ASSIGN(DecompressedTree decompressed,
                             Decompress(inst));
    ASSERT_EQ(decompressed.tree.node_count(), labeled.tree.node_count());
    for (TreeNodeId n = 0; n < labeled.tree.node_count(); ++n) {
      EXPECT_EQ(decompressed.tree.Parent(n), labeled.tree.Parent(n));
    }
    // Tag relations in the DAG must decompress to the tree's tag sets.
    for (const std::string& name : inst.schema().LiveNames()) {
      EXPECT_EQ(decompressed.RelationSet(name),
                labeled.tree.NodesWithTag(name))
          << name;
    }
  }
}

TEST(DecompressTest, SynthesizedTags) {
  // Vertices with exactly one non-"str:" relation get that name as their
  // tag; multi-label or unlabeled vertices decompress as "#node".
  CompressOptions options;
  options.mode = LabelMode::kSchema;
  options.tags = {"b"};
  options.patterns = {"x"};
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst,
                           CompressXml("<a><b>x</b><c/></a>", options));
  XCQ_ASSERT_OK_AND_ASSIGN(DecompressedTree out, Decompress(inst));
  ASSERT_EQ(out.tree.node_count(), 4u);  // #doc a b c
  EXPECT_EQ(out.tree.TagName(2), "b");       // single tag label
  EXPECT_EQ(out.tree.TagName(1), "#node");   // untracked tag
  EXPECT_EQ(out.tree.TagName(3), "#node");
  // The str: relation transported to tree nodes but not used as a tag.
  EXPECT_TRUE(out.RelationSet(Schema::StringRelationName("x")).Test(2));
}

TEST(DecompressTest, OriginMapsTreeNodesToVertices) {
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst,
                           CompressXml("<a><b/><b/></a>", {}));
  XCQ_ASSERT_OK_AND_ASSIGN(DecompressedTree out, Decompress(inst));
  ASSERT_EQ(out.origin.size(), 4u);
  EXPECT_EQ(out.origin[0], inst.root());
  EXPECT_EQ(out.origin[2], out.origin[3]);  // shared b vertex
}

TEST(DecompressTest, BudgetEnforced) {
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst,
                           CompressXml(AlternatingBinaryTreeXml(12), {}));
  DecompressOptions options;
  options.max_nodes = 100;
  EXPECT_EQ(Decompress(inst, options).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(DecompressTest, CountMatchesStats) {
  const std::string xml = RandomXml(31, 500, 3);
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml(xml, {}));
  XCQ_ASSERT_OK_AND_ASSIGN(DecompressedTree decompressed,
                           Decompress(inst));
  EXPECT_EQ(decompressed.tree.node_count(), TreeNodeCount(inst));
}

// --- The paper's headline compression examples ---------------------------------

TEST(CompressorTest, BinaryTreeCompressesToChain) {
  // A complete binary tree of depth d with alternating labels compresses
  // to d vertices (one per level) — exponential compression.
  for (int depth = 2; depth <= 14; ++depth) {
    XCQ_ASSERT_OK_AND_ASSIGN(
        Instance inst, CompressXml(AlternatingBinaryTreeXml(depth), {}));
    EXPECT_EQ(inst.ReachableCount(), static_cast<size_t>(depth) + 1)
        << "depth " << depth;  // + #doc
    EXPECT_EQ(TreeNodeCount(inst), (uint64_t{1} << depth));  // 2^d - 1 + #doc
  }
}

TEST(CompressorTest, RelationalTableCompressesToColumnsPlusLogRows) {
  // Sec. 1: an R x C table compresses to O(C + log R) with multiplicities.
  const int columns = 10;
  for (const int rows : {16, 256, 4096}) {
    std::string xml = "<table>";
    for (int r = 0; r < rows; ++r) {
      xml += "<row>";
      for (int c = 0; c < columns; ++c) {
        xml += "<c" + std::to_string(c) + "/>";
      }
      xml += "</row>";
    }
    xml += "</table>";
    CompressOptions options;
    options.mode = LabelMode::kAllTags;
    XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml(xml, options));
    // Vertices: #doc, table, row, C columns = C + 3 (row sharing).
    EXPECT_EQ(inst.ReachableCount(), static_cast<size_t>(columns) + 3);
    // The row multiplicity collapses to a single edge: table has exactly
    // one RLE edge to the shared row vertex.
    EXPECT_EQ(inst.rle_edge_count(), static_cast<uint64_t>(columns) + 2);
  }
}

// --- Label modes ----------------------------------------------------------------

TEST(CompressorTest, SchemaModeTracksOnlyRequestedTags) {
  CompressOptions options;
  options.mode = LabelMode::kSchema;
  options.tags = {"author"};
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst,
                           CompressXml(BibExampleXml(), options));
  EXPECT_NE(inst.FindRelation("author"), kNoRelation);
  EXPECT_EQ(inst.FindRelation("title"), kNoRelation);
  // Bare structure + author bit: title and author leaves now differ,
  // book/paper/bib collapse further than all-tags mode.
  EXPECT_LE(inst.ReachableCount(), 6u);
}

TEST(CompressorTest, SchemaModeUnknownTagYieldsEmptyRelation) {
  CompressOptions options;
  options.mode = LabelMode::kSchema;
  options.tags = {"nonexistent"};
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst,
                           CompressXml(BibExampleXml(), options));
  const RelationId r = inst.FindRelation("nonexistent");
  ASSERT_NE(r, kNoRelation);
  EXPECT_EQ(inst.RelationBits(r).Count(), 0u);
}

TEST(CompressorTest, PatternsBecomeStrRelations) {
  CompressOptions options;
  options.mode = LabelMode::kSchema;
  options.tags = {"paper", "author"};
  options.patterns = {"Codd"};
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst,
                           CompressXml(BibExampleXml(), options));
  const RelationId r =
      inst.FindRelation(Schema::StringRelationName("Codd"));
  ASSERT_NE(r, kNoRelation);
  // "Codd" is contained in: the author leaf, its paper, bib, #doc.
  EXPECT_EQ(SelectedTreeNodeCount(inst, r), 4u);
}

TEST(CompressorTest, PatternsDifferentiateSharedSubtrees) {
  // Two structurally identical papers, but only one contains "Codd":
  // with the pattern tracked they must NOT share a vertex.
  CompressOptions with_pattern;
  with_pattern.mode = LabelMode::kSchema;
  with_pattern.patterns = {"Codd"};
  XCQ_ASSERT_OK_AND_ASSIGN(Instance tracked,
                           CompressXml(BibExampleXml(), with_pattern));

  CompressOptions without;
  without.mode = LabelMode::kNone;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance bare,
                           CompressXml(BibExampleXml(), without));
  EXPECT_GT(tracked.ReachableCount(), bare.ReachableCount());
}

TEST(CompressorTest, TagsOptionRejectedOutsideSchemaMode) {
  CompressOptions options;
  options.mode = LabelMode::kAllTags;
  options.tags = {"x"};
  EXPECT_EQ(CompressXml("<a/>", options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CompressorTest, StatsReported) {
  CompressOptions options;
  options.mode = LabelMode::kSchema;
  options.patterns = {"Codd"};
  CompressRunStats stats;
  XCQ_ASSERT_OK_AND_ASSIGN(
      Instance inst, CompressXmlWithStats(BibExampleXml(), options, &stats));
  EXPECT_EQ(stats.tree_nodes, 13u);
  EXPECT_GT(stats.text_bytes, 0u);
  EXPECT_EQ(stats.pattern_hits, 1u);
  EXPECT_GE(stats.parse_seconds, 0.0);
  (void)inst;
}

// --- Equivalence / edge paths (Def. 2.1 oracle) --------------------------------

TEST(VerifyTest, EdgePathsMatchBetweenEquivalentInstances) {
  // Compare the compressed instance against the uncompressed
  // tree-instance via explicit Π enumeration (tiny inputs only).
  const std::string xml = "<a><b><c/><c/></b><b><c/><c/></b></a>";
  XCQ_ASSERT_OK_AND_ASSIGN(LabeledTree labeled, TreeBuilder::Build(xml));
  XCQ_ASSERT_OK_AND_ASSIGN(Instance tree_inst, InstanceFromTree(labeled));
  CompressOptions options;
  options.mode = LabelMode::kAllTags;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance dag, CompressXml(xml, options));

  XCQ_ASSERT_OK_AND_ASSIGN(const auto paths_tree,
                           EnumerateEdgePaths(tree_inst, kNoRelation));
  XCQ_ASSERT_OK_AND_ASSIGN(const auto paths_dag,
                           EnumerateEdgePaths(dag, kNoRelation));
  EXPECT_EQ(paths_tree, paths_dag);

  // Π(S) for each relation name.
  for (const std::string& name : dag.schema().LiveNames()) {
    XCQ_ASSERT_OK_AND_ASSIGN(
        const auto s_tree,
        EnumerateEdgePaths(tree_inst, tree_inst.FindRelation(name)));
    XCQ_ASSERT_OK_AND_ASSIGN(
        const auto s_dag, EnumerateEdgePaths(dag, dag.FindRelation(name)));
    EXPECT_EQ(s_tree, s_dag) << name;
  }
}

TEST(VerifyTest, DetectsInequivalence) {
  XCQ_ASSERT_OK_AND_ASSIGN(Instance a, CompressXml("<a><b/><b/></a>", {}));
  XCQ_ASSERT_OK_AND_ASSIGN(Instance b, CompressXml("<a><b/></a>", {}));
  XCQ_ASSERT_OK_AND_ASSIGN(const bool equivalent, AreEquivalent(a, b));
  EXPECT_FALSE(equivalent);
}

TEST(VerifyTest, DetectsLabelDifference) {
  CompressOptions options;
  options.mode = LabelMode::kAllTags;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance a,
                           CompressXml("<a><x/></a>", options));
  XCQ_ASSERT_OK_AND_ASSIGN(Instance b,
                           CompressXml("<a><y/></a>", options));
  XCQ_ASSERT_OK_AND_ASSIGN(const bool equivalent, AreEquivalent(a, b));
  EXPECT_FALSE(equivalent);
}

TEST(VerifyTest, PathEnumerationLimit) {
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst,
                           CompressXml(AlternatingBinaryTreeXml(16), {}));
  EXPECT_EQ(EnumerateEdgePaths(inst, kNoRelation, 1000).status().code(),
            StatusCode::kResourceExhausted);
}

// --- Common extension (Lemma 2.7) ----------------------------------------------

TEST(CommonExtensionTest, MergesTagAndPatternInstances) {
  const std::string xml = BibExampleXml();
  CompressOptions tag_options;
  tag_options.mode = LabelMode::kSchema;
  tag_options.tags = {"paper"};
  XCQ_ASSERT_OK_AND_ASSIGN(Instance tags, CompressXml(xml, tag_options));

  CompressOptions pattern_options;
  pattern_options.mode = LabelMode::kSchema;
  pattern_options.patterns = {"Codd"};
  XCQ_ASSERT_OK_AND_ASSIGN(Instance patterns,
                           CompressXml(xml, pattern_options));

  XCQ_ASSERT_OK_AND_ASSIGN(Instance merged,
                           CommonExtension(tags, patterns));
  XCQ_ASSERT_OK(merged.Validate());

  // The merged instance must be equivalent to compressing with both
  // labelings at once.
  CompressOptions both;
  both.mode = LabelMode::kSchema;
  both.tags = {"paper"};
  both.patterns = {"Codd"};
  XCQ_ASSERT_OK_AND_ASSIGN(Instance direct, CompressXml(xml, both));
  XCQ_ASSERT_OK_AND_ASSIGN(const bool equivalent,
                           AreEquivalent(merged, direct));
  EXPECT_TRUE(equivalent);
}

TEST(CommonExtensionTest, ReductsOfExtensionAreEquivalentToInputs) {
  const std::string xml = RandomXml(55, 200, 3);
  CompressOptions a_options;
  a_options.mode = LabelMode::kSchema;
  a_options.tags = {"t0"};
  XCQ_ASSERT_OK_AND_ASSIGN(Instance a, CompressXml(xml, a_options));
  CompressOptions b_options;
  b_options.mode = LabelMode::kSchema;
  b_options.tags = {"t1"};
  XCQ_ASSERT_OK_AND_ASSIGN(Instance b, CompressXml(xml, b_options));

  XCQ_ASSERT_OK_AND_ASSIGN(Instance merged, CommonExtension(a, b));
  const Instance ra = Reduct(merged, {"t0"});
  const Instance rb = Reduct(merged, {"t1"});
  XCQ_ASSERT_OK_AND_ASSIGN(const bool ea, AreEquivalent(ra, a));
  XCQ_ASSERT_OK_AND_ASSIGN(const bool eb, AreEquivalent(rb, b));
  EXPECT_TRUE(ea);
  EXPECT_TRUE(eb);
}

TEST(CommonExtensionTest, IncompatibleStructuresRejected) {
  XCQ_ASSERT_OK_AND_ASSIGN(Instance a, CompressXml("<a><b/><b/></a>", {}));
  XCQ_ASSERT_OK_AND_ASSIGN(Instance b, CompressXml("<a><b/></a>", {}));
  EXPECT_EQ(CommonExtension(a, b).status().code(),
            StatusCode::kIncompatible);
}

TEST(CommonExtensionTest, SharedRelationDisagreementRejected) {
  CompressOptions options;
  options.mode = LabelMode::kAllTags;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance a,
                           CompressXml("<r><x/></r>", options));
  XCQ_ASSERT_OK_AND_ASSIGN(Instance b,
                           CompressXml("<r><x/></r>", options));
  // Corrupt b: claim the root is an "x".
  b.SetBit(b.FindRelation("x"), b.root());
  EXPECT_EQ(CommonExtension(a, b).status().code(),
            StatusCode::kIncompatible);
}

TEST(CommonExtensionTest, MinimizedProductIsMinimal) {
  const std::string xml = RandomXml(66, 150, 2);
  CompressOptions bare;
  bare.mode = LabelMode::kNone;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance a, CompressXml(xml, bare));
  XCQ_ASSERT_OK_AND_ASSIGN(Instance b, CompressXml(xml, bare));
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance product, CommonExtension(a, b));
  XCQ_ASSERT_OK_AND_ASSIGN(Instance merged, Minimize(product));
  XCQ_ASSERT_OK_AND_ASSIGN(const bool minimal, IsMinimal(merged));
  EXPECT_TRUE(minimal);
  // Same labelings on both sides: the product is just the input again.
  EXPECT_EQ(merged.vertex_count(), a.ReachableCount());
}

}  // namespace
}  // namespace xcq
