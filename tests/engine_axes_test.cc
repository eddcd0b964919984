#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"
#include "xcq/engine/axes.h"
#include "xcq/engine/lane_mask.h"

namespace xcq::engine {
namespace {

/// One QUERY step of each kernel family: a one-lane sweep that splits.
Status DownwardStep(Instance* instance, xpath::Axis axis, RelationId src,
                    RelationId dst, AxisStats* stats = nullptr) {
  const SweepLane lane{.src = src, .dst = dst};
  return SweepDownward(instance, axis, {&lane, 1}, OnClash::kSplit, stats);
}
Status UpwardStep(Instance* instance, xpath::Axis axis, RelationId src,
                  RelationId dst, AxisStats* stats = nullptr) {
  const SweepLane lane{.src = src, .dst = dst};
  return SweepUpward(instance, axis, {&lane, 1}, stats);
}
Status SiblingStep(Instance* instance, xpath::Axis axis, RelationId src,
                   RelationId dst, AxisStats* stats = nullptr) {
  const SweepLane lane{.src = src, .dst = dst};
  return SweepSibling(instance, axis, {&lane, 1}, OnClash::kSplit, stats);
}

/// The paper's Fig. 2 (a) instance (the Example 1.1 bibliography):
///   v0 = title leaf, v1 = author leaf,
///   v2 = book  -> (v0,1)(v1,3)
///   v3 = paper -> (v0,1)(v1,1)
///   v4 = bib   -> (v2,1)(v3,2)
struct Fig2 {
  Instance inst;
  VertexId title = 0;
  VertexId author = 1;
  VertexId book = 2;
  VertexId paper = 3;
  VertexId bib = 4;
  RelationId src;
  RelationId dst;

  Fig2() {
    for (int i = 0; i < 5; ++i) inst.AddVertex();
    const std::vector<Edge> eb = {{title, 1}, {author, 3}};
    const std::vector<Edge> ep = {{title, 1}, {author, 1}};
    const std::vector<Edge> er = {{book, 1}, {paper, 2}};
    inst.SetEdges(book, eb);
    inst.SetEdges(paper, ep);
    inst.SetEdges(bib, er);
    inst.SetRoot(bib);
    src = inst.AddRelation("src");
    dst = inst.AddRelation("dst");
  }

  uint64_t DstTreeCount() const {
    return SelectedTreeNodeCount(inst, dst);
  }
};

TEST(DownwardAxisTest, ChildOfRootSelectsAllChildren) {
  Fig2 f;
  f.inst.SetBit(f.src, f.bib);
  XCQ_ASSERT_OK(DownwardStep(&f.inst, xpath::Axis::kChild, f.src, f.dst));
  // All of bib's children: book + 2 papers = 3 tree nodes, no splits
  // (every parent of book/paper agrees on the selection).
  EXPECT_EQ(f.inst.vertex_count(), 5u);
  EXPECT_EQ(f.DstTreeCount(), 3u);
  EXPECT_TRUE(f.inst.Test(f.dst, f.book));
  EXPECT_TRUE(f.inst.Test(f.dst, f.paper));
  EXPECT_FALSE(f.inst.Test(f.dst, f.title));
}

TEST(DownwardAxisTest, ChildOfBookSplitsSharedLeaves) {
  Fig2 f;
  f.inst.SetBit(f.src, f.book);
  AxisStats stats;
  XCQ_ASSERT_OK(DownwardStep(&f.inst, xpath::Axis::kChild, f.src,
                             f.dst, &stats));
  // book's children (1 title + 3 authors) are selected; the papers share
  // the same title/author vertices, whose occurrences there must NOT be
  // selected -> both leaves split.
  EXPECT_EQ(stats.splits, 2u);
  EXPECT_EQ(f.inst.vertex_count(), 7u);
  EXPECT_EQ(f.DstTreeCount(), 4u);
  XCQ_ASSERT_OK(f.inst.Validate());
  // The originals (visited first, under book) carry the selected bit;
  // the papers now point at unselected clones.
  for (const Edge& e : f.inst.Children(f.paper)) {
    EXPECT_FALSE(f.inst.Test(f.dst, e.child));
  }
  for (const Edge& e : f.inst.Children(f.book)) {
    EXPECT_TRUE(f.inst.Test(f.dst, e.child));
  }
}

TEST(DownwardAxisTest, AuxPointersPreventRepeatedCopies) {
  // Many parents alternating between "selected" and "unselected"
  // requirements on one shared leaf: exactly one clone must be created.
  Instance inst;
  const VertexId leaf = inst.AddVertex();
  std::vector<Edge> parent_edges = {{leaf, 2}};
  std::vector<VertexId> parents;
  for (int i = 0; i < 8; ++i) {
    const VertexId p = inst.AddVertex();
    inst.SetEdges(p, parent_edges);
    parents.push_back(p);
  }
  const VertexId root = inst.AddVertex();
  std::vector<Edge> root_edges;
  for (VertexId p : parents) root_edges.push_back({p, 1});
  inst.SetEdges(root, root_edges);
  inst.SetRoot(root);
  const RelationId src = inst.AddRelation("src");
  const RelationId dst = inst.AddRelation("dst");
  // Select every second parent: leaf occurrences need both bits.
  for (size_t i = 0; i < parents.size(); i += 2) {
    inst.SetBit(src, parents[i]);
  }
  AxisStats stats;
  XCQ_ASSERT_OK(
      DownwardStep(&inst, xpath::Axis::kChild, src, dst, &stats));
  EXPECT_EQ(stats.splits, 1u);  // one clone serves all conflicts
  EXPECT_EQ(SelectedTreeNodeCount(inst, dst), 8u);  // 4 parents x 2
  XCQ_ASSERT_OK(inst.Validate());
}

TEST(DownwardAxisTest, DescendantPropagatesThroughClones) {
  // Chain bib -> book -> leaves; selecting descendant(book) must select
  // the leaves but not book itself, and descendant({bib}) everything.
  Fig2 f;
  f.inst.SetBit(f.src, f.book);
  XCQ_ASSERT_OK(DownwardStep(&f.inst, xpath::Axis::kDescendant, f.src, f.dst));
  EXPECT_FALSE(f.inst.Test(f.dst, f.book));
  EXPECT_EQ(f.DstTreeCount(), 4u);  // book's title + 3 authors

  Fig2 g;
  g.inst.SetBit(g.src, g.bib);
  XCQ_ASSERT_OK(DownwardStep(&g.inst, xpath::Axis::kDescendant, g.src, g.dst));
  EXPECT_EQ(g.DstTreeCount(), 11u);  // every node but the root
}

TEST(DownwardAxisTest, DescendantOrSelfIncludesSource) {
  Fig2 f;
  f.inst.SetBit(f.src, f.paper);
  XCQ_ASSERT_OK(DownwardStep(&f.inst, xpath::Axis::kDescendantOrSelf,
                             f.src, f.dst));
  // Both papers + their title/author: 2 * 3 = 6 tree nodes. The leaves
  // split away from book's copies.
  EXPECT_EQ(f.DstTreeCount(), 6u);
  EXPECT_TRUE(f.inst.Test(f.dst, f.paper));
  XCQ_ASSERT_OK(f.inst.Validate());
}

TEST(DownwardAxisTest, RejectsNonDownwardAxis) {
  Fig2 f;
  EXPECT_EQ(DownwardStep(&f.inst, xpath::Axis::kParent, f.src, f.dst)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(UpwardAxisTest, ParentOfLeaves) {
  Fig2 f;
  f.inst.SetBit(f.src, f.author);
  XCQ_ASSERT_OK(
      UpwardStep(&f.inst, xpath::Axis::kParent, f.src, f.dst));
  EXPECT_TRUE(f.inst.Test(f.dst, f.book));
  EXPECT_TRUE(f.inst.Test(f.dst, f.paper));
  EXPECT_FALSE(f.inst.Test(f.dst, f.bib));
  EXPECT_EQ(f.inst.vertex_count(), 5u);  // never splits
}

TEST(UpwardAxisTest, AncestorReachesRoot) {
  Fig2 f;
  f.inst.SetBit(f.src, f.title);
  XCQ_ASSERT_OK(
      UpwardStep(&f.inst, xpath::Axis::kAncestor, f.src, f.dst));
  EXPECT_TRUE(f.inst.Test(f.dst, f.book));
  EXPECT_TRUE(f.inst.Test(f.dst, f.paper));
  EXPECT_TRUE(f.inst.Test(f.dst, f.bib));
  EXPECT_FALSE(f.inst.Test(f.dst, f.title));
  EXPECT_FALSE(f.inst.Test(f.dst, f.author));
}

TEST(UpwardAxisTest, AncestorOrSelfIncludesSource) {
  Fig2 f;
  f.inst.SetBit(f.src, f.title);
  XCQ_ASSERT_OK(UpwardStep(&f.inst, xpath::Axis::kAncestorOrSelf,
                           f.src, f.dst));
  EXPECT_TRUE(f.inst.Test(f.dst, f.title));
  EXPECT_TRUE(f.inst.Test(f.dst, f.bib));
}

TEST(UpwardAxisTest, SelfCopies) {
  Fig2 f;
  f.inst.SetBit(f.src, f.paper);
  XCQ_ASSERT_OK(UpwardStep(&f.inst, xpath::Axis::kSelf, f.src, f.dst));
  EXPECT_EQ(f.inst.RelationBits(f.dst), f.inst.RelationBits(f.src));
}

TEST(UpwardAxisTest, RejectsDownwardAxis) {
  Fig2 f;
  EXPECT_FALSE(
      UpwardStep(&f.inst, xpath::Axis::kChild, f.src, f.dst).ok());
}

TEST(SiblingAxisTest, FollowingSiblingAcrossRuns) {
  // src = {book}: both paper occurrences follow it.
  Fig2 f;
  f.inst.SetBit(f.src, f.book);
  XCQ_ASSERT_OK(SiblingStep(&f.inst, xpath::Axis::kFollowingSibling,
                            f.src, f.dst));
  EXPECT_EQ(f.DstTreeCount(), 2u);
  XCQ_ASSERT_OK(f.inst.Validate());
}

TEST(SiblingAxisTest, FollowingSiblingSplitsRunAtSourceBoundary) {
  // src = {paper}: of the run (paper,2), only the *second* occurrence
  // has a preceding sibling in src — the run must split (the
  // multiplicity subtlety of Prop. 3.4).
  Fig2 f;
  f.inst.SetBit(f.src, f.paper);
  AxisStats stats;
  XCQ_ASSERT_OK(SiblingStep(&f.inst, xpath::Axis::kFollowingSibling,
                            f.src, f.dst, &stats));
  EXPECT_EQ(f.DstTreeCount(), 1u);
  EXPECT_EQ(stats.splits, 1u);
  // bib's child list is now three runs: book, paper(unselected),
  // paper-variant(selected).
  ASSERT_EQ(f.inst.Children(f.bib).size(), 3u);
  const std::span<const Edge> children = f.inst.Children(f.bib);
  EXPECT_FALSE(f.inst.Test(f.dst, children[1].child));
  EXPECT_TRUE(f.inst.Test(f.dst, children[2].child));
  XCQ_ASSERT_OK(f.inst.Validate());
}

TEST(SiblingAxisTest, PrecedingSiblingMirrors) {
  // src = {paper}: book precedes a paper, and the first paper precedes
  // the second -> selected tree nodes = book + first paper = 2.
  Fig2 f;
  f.inst.SetBit(f.src, f.paper);
  XCQ_ASSERT_OK(SiblingStep(&f.inst, xpath::Axis::kPrecedingSibling,
                            f.src, f.dst));
  EXPECT_EQ(f.DstTreeCount(), 2u);
  // Order check: the selected paper occurrence must be the FIRST one.
  const std::span<const Edge> children = f.inst.Children(f.bib);
  ASSERT_EQ(children.size(), 3u);
  EXPECT_TRUE(f.inst.Test(f.dst, children[0].child));   // book
  EXPECT_TRUE(f.inst.Test(f.dst, children[1].child));   // paper #1
  EXPECT_FALSE(f.inst.Test(f.dst, children[2].child));  // paper #2
  XCQ_ASSERT_OK(f.inst.Validate());
}

TEST(SiblingAxisTest, LargeMultiplicityRunSplitsIntoTwoRunsOnly) {
  // (leaf, 1000) with leaf in src: following-sibling selects occurrences
  // 2..1000; the run must become (leaf',1)(leaf'',999) — not 1000 edges.
  Instance inst;
  const VertexId leaf = inst.AddVertex();
  const VertexId root = inst.AddVertex();
  const std::vector<Edge> edges = {{leaf, 1000}};
  inst.SetEdges(root, edges);
  inst.SetRoot(root);
  const RelationId src = inst.AddRelation("src");
  const RelationId dst = inst.AddRelation("dst");
  inst.SetBit(src, leaf);
  XCQ_ASSERT_OK(
      SiblingStep(&inst, xpath::Axis::kFollowingSibling, src, dst));
  ASSERT_EQ(inst.Children(root).size(), 2u);
  EXPECT_EQ(inst.Children(root)[0].count, 1u);
  EXPECT_EQ(inst.Children(root)[1].count, 999u);
  EXPECT_EQ(SelectedTreeNodeCount(inst, dst), 999u);
  XCQ_ASSERT_OK(inst.Validate());
}

TEST(SiblingAxisTest, RootHasNoSiblings) {
  Fig2 f;
  f.inst.SetBit(f.src, f.bib);
  XCQ_ASSERT_OK(SiblingStep(&f.inst, xpath::Axis::kFollowingSibling,
                            f.src, f.dst));
  EXPECT_EQ(f.DstTreeCount(), 0u);
}

TEST(SiblingAxisTest, CloneTakenBeforeProcessingIsStillRewritten) {
  // A diamond where the shared child `mid` is reached with conflicting
  // bits before `mid`'s own child list has been rewritten; the clone
  // must still get a correctly rewritten list (idempotent reprocessing).
  //
  //        root
  //       /    \                mid's children: (x, 2), x in src
  //     a(x)    b
  //      |      |
  //      mid   mid   (a selects mid's following-siblings via x; b not)
  Instance inst;
  const VertexId x = inst.AddVertex();
  const VertexId mid = inst.AddVertex();
  const std::vector<Edge> mid_edges = {{x, 2}};
  inst.SetEdges(mid, mid_edges);
  const VertexId a = inst.AddVertex();
  const std::vector<Edge> a_edges = {{x, 1}, {mid, 1}};
  inst.SetEdges(a, a_edges);
  const VertexId b = inst.AddVertex();
  const std::vector<Edge> b_edges = {{mid, 1}, {x, 1}};
  inst.SetEdges(b, b_edges);
  const VertexId root = inst.AddVertex();
  const std::vector<Edge> root_edges = {{a, 1}, {b, 1}};
  inst.SetEdges(root, root_edges);
  inst.SetRoot(root);
  const RelationId src = inst.AddRelation("src");
  const RelationId dst = inst.AddRelation("dst");
  inst.SetBit(src, x);

  XCQ_ASSERT_OK(
      SiblingStep(&inst, xpath::Axis::kFollowingSibling, src, dst));
  XCQ_ASSERT_OK(inst.Validate());
  // Tree view: under a, mid follows x -> selected, and mid's second x
  // occurrence follows the first -> selected. Under b, mid precedes x ->
  // unselected, but its inner second x is still selected.
  // Selected tree nodes: a's mid, a's mid's 2nd x, b's x (follows mid? no
  // -- b's x follows mid which is NOT in src... wait, x IS in src only as
  // a *sibling source*: b's x follows b's mid, mid not in src, so not
  // selected; b's mid's 2nd x occurrence IS selected.
  // => a: mid(1) + inner x(1); b: inner x(1). Total 3.
  EXPECT_EQ(SelectedTreeNodeCount(inst, dst), 3u);
}

TEST(FollowingAxisTest, MatchesCompositionDefinition) {
  // following(S) = d-o-s(following-sibling(a-o-s(S))): validated at the
  // query level by differential tests; here check a direct case on Fig2.
  Fig2 f;
  // S = {title}: in each subtree, everything after title's occurrence.
  f.inst.SetBit(f.src, f.title);
  // Compose manually.
  const RelationId aos = f.inst.AddRelation("aos");
  XCQ_ASSERT_OK(
      UpwardStep(&f.inst, xpath::Axis::kAncestorOrSelf, f.src, aos));
  const RelationId fs = f.inst.AddRelation("fs");
  XCQ_ASSERT_OK(SiblingStep(&f.inst, xpath::Axis::kFollowingSibling, aos, fs));
  XCQ_ASSERT_OK(DownwardStep(&f.inst, xpath::Axis::kDescendantOrSelf,
                             fs, f.dst));
  // Tree: following(title-of-book) = 3 authors + 2 papers + their
  // contents (2*2) = 9; following(title-of-paper-i) adds that paper's
  // author and later papers' contents — all unioned:
  // nodes after ANY title in document order = authors(3+1+1) + papers(2)
  // + titles of later papers(2)... enumerate: doc order:
  // bib book title a a a paper title author paper title author
  // after first title: everything except bib, book, title1 -> 9 nodes
  // (others are subsets). 9 it is.
  EXPECT_EQ(f.DstTreeCount(), 9u);
}

// --- every kernel against the tree baseline --------------------------------

/// Runs one kernel on a copy of `base`, writing into a fresh relation
/// named "test:dst".
Instance RunAxisSweep(const Instance& base, xpath::Axis axis,
                      RelationId src, AxisStats* stats) {
  Instance instance = base;
  const RelationId dst = instance.AddRelation("test:dst");
  Status status;
  if (xpath::IsUpwardAxis(axis)) {
    status = UpwardStep(&instance, axis, src, dst, stats);
  } else if (axis == xpath::Axis::kFollowingSibling ||
             axis == xpath::Axis::kPrecedingSibling) {
    status = SiblingStep(&instance, axis, src, dst, stats);
  } else {
    status = DownwardStep(&instance, axis, src, dst, stats);
  }
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(instance.Validate().ok()) << instance.Validate().ToString();
  return instance;
}

TEST(AxisKernelTest, EveryAxisMatchesTreeBaseline) {
  // TreeBank compresses worst (deep, irregular), so its sweeps split
  // plenty and the kernels' split handling is really exercised.
  XCQ_ASSERT_OK_AND_ASSIGN(const corpus::CorpusGenerator* generator,
                           corpus::FindCorpus("TreeBank"));
  corpus::GenerateOptions gen;
  gen.target_nodes = 25000;
  gen.seed = 3;
  const std::string xml = generator->Generate(gen);
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance base, CompressXml(xml, {}));
  XCQ_ASSERT_OK_AND_ASSIGN(const LabeledTree labeled, TreeBuilder::Build(xml));

  // Sweep from relations of very different densities.
  std::vector<RelationId> sources;
  size_t best_count = 0;
  RelationId densest = kNoRelation;
  for (const RelationId r : base.LiveRelations()) {
    const size_t count = base.RelationBits(r).Count();
    if (count > best_count) {
      densest = r;
      best_count = count;
    }
    if (count > 0 && sources.size() < 2) sources.push_back(r);
  }
  ASSERT_NE(densest, kNoRelation);
  sources.push_back(densest);

  const xpath::Axis kAxes[] = {
      xpath::Axis::kChild,            xpath::Axis::kDescendant,
      xpath::Axis::kDescendantOrSelf, xpath::Axis::kParent,
      xpath::Axis::kAncestor,         xpath::Axis::kAncestorOrSelf,
      xpath::Axis::kFollowingSibling, xpath::Axis::kPrecedingSibling};
  uint64_t total_splits = 0;
  for (const RelationId src : sources) {
    const std::string& src_name = base.schema().Name(src);
    for (const xpath::Axis axis : kAxes) {
      SCOPED_TRACE(std::string("axis ") + std::string(xpath::AxisName(axis)) +
                   " src " + src_name);
      AxisStats stats;
      const Instance swept = RunAxisSweep(base, axis, src, &stats);
      total_splits += stats.splits;

      // The answer: the one-axis plan `relation src → axis` on the tree.
      algebra::QueryPlan plan;
      plan.ops.push_back({.kind = algebra::OpKind::kRelation,
                          .relation = src_name});
      plan.ops.push_back(
          {.kind = algebra::OpKind::kAxis, .axis = axis, .input0 = 0});
      XCQ_ASSERT_OK_AND_ASSIGN(const DynamicBitset expected,
                               baseline::Evaluate(labeled, plan));
      XCQ_ASSERT_OK_AND_ASSIGN(const DecompressedTree tree,
                               Decompress(swept, {}));
      EXPECT_TRUE(tree.RelationSet("test:dst") == expected)
          << "selected " << tree.RelationSet("test:dst").Count()
          << " tree nodes, baseline " << expected.Count();
    }
  }
  EXPECT_GT(total_splits, 0u) << "no sweep split; the split paths went "
                                 "unexercised";
}

/// `Evaluate` answers descendant(-or-self) from {root} with a closed
/// form instead of a sweep. It must leave exactly what the downward
/// kernel leaves: the same column, no split, the same child lists, and
/// the tree baseline's answer.
void ExpectClosedFormMatchesKernel(const std::string& xml) {
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance base, CompressXml(xml, {}));
  XCQ_ASSERT_OK_AND_ASSIGN(const LabeledTree labeled, TreeBuilder::Build(xml));
  for (const xpath::Axis axis :
       {xpath::Axis::kDescendant, xpath::Axis::kDescendantOrSelf}) {
    SCOPED_TRACE(std::string(xpath::AxisName(axis)));
    algebra::QueryPlan plan;
    plan.ops.push_back({.kind = algebra::OpKind::kRoot});
    plan.ops.push_back(
        {.kind = algebra::OpKind::kAxis, .axis = axis, .input0 = 0});
    XCQ_ASSERT_OK_AND_ASSIGN(const DynamicBitset expected,
                             baseline::Evaluate(labeled, plan));

    Instance closed = base;
    EvalStats stats;
    XCQ_ASSERT_OK_AND_ASSIGN(const RelationId result,
                             Evaluate(&closed, plan, {}, &stats));
    const AxisFamilyStats& down =
        stats.axis[static_cast<size_t>(AxisFamily::kDownward)];
    EXPECT_EQ(down.pruned, 1u) << "the closed form did not run";
    EXPECT_EQ(down.visited, 0u);
    EXPECT_EQ(stats.splits, 0u);

    Instance swept = base;
    const RelationId root = swept.AddRelation("test:root");
    swept.SetBit(root, swept.root());
    const RelationId dst = swept.AddRelation("test:dst");
    AxisStats kernel;
    XCQ_ASSERT_OK(DownwardStep(&swept, axis, root, dst, &kernel));
    EXPECT_EQ(kernel.splits, 0u);

    EXPECT_TRUE(closed.RelationBits(result) == swept.RelationBits(dst));
    testing::ExpectSameChildLists(closed, swept);
    XCQ_ASSERT_OK_AND_ASSIGN(const DecompressedTree closed_tree,
                             Decompress(closed, {}));
    XCQ_ASSERT_OK_AND_ASSIGN(const DecompressedTree swept_tree,
                             Decompress(swept, {}));
    EXPECT_TRUE(closed_tree.RelationSet(kResultRelation) == expected);
    EXPECT_TRUE(swept_tree.RelationSet("test:dst") == expected);
  }
}

TEST(AxisKernelTest, DescendantFromRootClosedFormMatchesKernel) {
  {
    SCOPED_TRACE("paper example");
    ExpectClosedFormMatchesKernel(testing::BibExampleXml());
  }
  size_t corpus_index = 0;
  for (const corpus::CorpusGenerator* generator : corpus::AllCorpora()) {
    SCOPED_TRACE(std::string(generator->name()));
    corpus::GenerateOptions gen;
    gen.target_nodes = 2000;
    gen.seed = 17 + corpus_index++;
    ExpectClosedFormMatchesKernel(generator->Generate(gen));
  }
}

// --- one kernel, two clash policies ----------------------------------------

/// Asserts that `a` and `b` hold the same vertices, child lists and
/// relation columns.
void ExpectSameInstance(const Instance& a, const Instance& b) {
  testing::ExpectSameChildLists(a, b);
  ASSERT_EQ(a.LiveRelations(), b.LiveRelations());
  for (const RelationId r : a.LiveRelations()) {
    EXPECT_TRUE(a.RelationBits(r) == b.RelationBits(r))
        << "column " << a.schema().Name(r) << " differs";
  }
}

/// A clone carries one lane's selection, so only a one-lane sweep may
/// split; a wider one must refuse clashes instead.
TEST(AxisKernelTest, OnlyOneLaneMaySplit) {
  Fig2 f;
  f.inst.SetBit(f.src, f.bib);
  const RelationId dst2 = f.inst.AddRelation("dst2");
  const SweepLane lanes[] = {{.src = f.src, .dst = f.dst},
                             {.src = f.src, .dst = dst2}};
  EXPECT_EQ(SweepDownward(&f.inst, xpath::Axis::kChild, lanes,
                          OnClash::kSplit)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SweepSibling(&f.inst, xpath::Axis::kFollowingSibling, lanes,
                         OnClash::kSplit)
                .code(),
            StatusCode::kInvalidArgument);
  // child({bib}) clashes nowhere, so the refusing sweep answers.
  XCQ_ASSERT_OK(
      SweepDownward(&f.inst, xpath::Axis::kChild, lanes, OnClash::kRefuse));
  EXPECT_EQ(f.DstTreeCount(), 3u);
  EXPECT_TRUE(f.inst.RelationBits(f.dst) == f.inst.RelationBits(dst2));
}

/// A sweep holds one byte of lanes: every kernel refuses a ninth.
TEST(AxisKernelTest, NineLanesAreRefused) {
  Fig2 f;
  f.inst.SetBit(f.src, f.book);
  std::vector<SweepLane> lanes;
  for (size_t q = 0; q <= kMaskLanes; ++q) {
    lanes.push_back(
        {.src = f.src,
         .dst = f.inst.AddRelation("test:dst" + std::to_string(q))});
  }
  ASSERT_EQ(lanes.size(), 9u);
  const Instance before = f.inst;
  EXPECT_EQ(SweepDownward(&f.inst, xpath::Axis::kChild, lanes,
                          OnClash::kRefuse)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SweepUpward(&f.inst, xpath::Axis::kParent, lanes).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SweepSibling(&f.inst, xpath::Axis::kFollowingSibling, lanes,
                         OnClash::kRefuse)
                .code(),
            StatusCode::kInvalidArgument);
  ExpectSameInstance(f.inst, before);
}

/// A sweep that may not split refuses exactly where a splitting sweep
/// clones: over random instances, random source columns and lane counts
/// up to a full byte mask (8, every bit in use), a refused multi-lane sweep
/// (`Incompatible`) leaves the instance exactly as it was and happens
/// iff some lane's one-lane splitting sweep clones a vertex; otherwise
/// every lane's column equals that lane's splitting sweep, which then
/// cloned nothing.
TEST(AxisKernelTest, ClashIffSplit) {
  const xpath::Axis kAxes[] = {
      xpath::Axis::kChild, xpath::Axis::kDescendant,
      xpath::Axis::kDescendantOrSelf, xpath::Axis::kFollowingSibling,
      xpath::Axis::kPrecedingSibling};
  const auto sweep = [](Instance* instance, xpath::Axis axis,
                        std::span<const SweepLane> lanes, OnClash on_clash,
                        AxisStats* stats) {
    return FamilyOf(axis) == AxisFamily::kDownward
               ? SweepDownward(instance, axis, lanes, on_clash, stats)
               : SweepSibling(instance, axis, lanes, on_clash, stats);
  };
  Rng rng(2718);
  uint64_t clashes = 0;
  uint64_t clean = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    XCQ_ASSERT_OK_AND_ASSIGN(
        const Instance base,
        CompressXml(testing::RandomXml(seed, 60 + 40 * seed, 3), {}));
    for (const size_t width : {size_t{1}, size_t{3}, size_t{8}}) {
      for (const xpath::Axis axis : kAxes) {
        SCOPED_TRACE(std::string(xpath::AxisName(axis)) + " seed " +
                     std::to_string(seed) + " lanes " +
                     std::to_string(width));
        // Random source columns of one density per lane; sparse ones
        // often sweep without a clash, dense ones rarely do.
        Instance shared = base;
        std::vector<SweepLane> lanes(width);
        for (size_t q = 0; q < width; ++q) {
          SweepLane& lane = lanes[q];
          lane.src = shared.AddRelation("test:src" + std::to_string(q));
          lane.dst = shared.AddRelation("test:dst" + std::to_string(q));
          const double density = rng.Chance(0.5) ? 0.02 : 0.4;
          for (VertexId v = 0; v < shared.vertex_count(); ++v) {
            if (rng.Chance(density)) shared.SetBit(lane.src, v);
          }
        }
        const Instance before = shared;

        bool any_split = false;
        std::vector<DynamicBitset> split_dst;
        for (const SweepLane& lane : lanes) {
          Instance split = before;
          AxisStats stats;
          XCQ_ASSERT_OK(sweep(&split, axis, {&lane, 1}, OnClash::kSplit,
                              &stats));
          any_split = any_split || stats.splits > 0;
          split_dst.push_back(split.RelationBits(lane.dst));
        }

        const Status status =
            sweep(&shared, axis, lanes, OnClash::kRefuse, nullptr);
        if (any_split) {
          ++clashes;
          EXPECT_EQ(status.code(), StatusCode::kIncompatible)
              << status.ToString();
          ExpectSameInstance(shared, before);
        } else {
          ++clean;
          XCQ_ASSERT_OK(status);
          testing::ExpectSameChildLists(shared, before);
          for (size_t q = 0; q < width; ++q) {
            EXPECT_TRUE(shared.RelationBits(lanes[q].dst) == split_dst[q])
                << "lane " << q;
          }
        }
      }
    }
  }
  // Both outcomes must have been exercised.
  EXPECT_GT(clashes, 0u);
  EXPECT_GT(clean, 0u);
}

// --- upward sweeps against the pull ---------------------------------------

/// The children-first pull every upward sweep once made over all of the
/// reachable DAG, kept as the oracle of the frontier walk and the dense
/// push: one lane's parent / ancestor / ancestor-or-self column, from
/// the child lists.
DynamicBitset UpwardOracle(const Instance& instance, xpath::Axis axis,
                           RelationId src) {
  const std::vector<VertexId> order = instance.PostOrder();
  std::vector<uint8_t> carry(instance.vertex_count(), 0);
  std::vector<uint8_t> up(instance.vertex_count(), 0);
  for (const VertexId v : order) carry[v] = instance.Test(src, v) ? 1 : 0;
  for (const VertexId v : order) {
    for (const Edge& e : instance.Children(v)) up[v] |= carry[e.child];
    if (axis != xpath::Axis::kParent) carry[v] |= up[v];
  }
  DynamicBitset dst(instance.vertex_count());
  for (const VertexId v : order) {
    if (axis == xpath::Axis::kAncestorOrSelf ? carry[v] : up[v]) dst.Set(v);
  }
  return dst;
}

/// Every upward sweep equals the pull, over random instances,
/// sources on both sides of the density rule (empty, one vertex, sparse,
/// every reachable vertex) with bits on unreachable split leftovers, and
/// lane counts up to a full byte mask (8, every bit in use). No
/// unreachable id ever gets a `dst` bit.
TEST(AxisKernelTest, UpwardSweepMatchesFullPass) {
  enum Kind { kEmpty, kSingle, kSparse, kAll, kKinds };
  const xpath::Axis kAxes[] = {xpath::Axis::kParent, xpath::Axis::kAncestor,
                               xpath::Axis::kAncestorOrSelf};
  Rng rng(1618);
  uint64_t walks = 0;
  uint64_t dense_pushes = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    XCQ_ASSERT_OK_AND_ASSIGN(
        Instance base,
        CompressXml(testing::RandomXml(seed, 80 + 60 * seed, 3), {}));
    // Unlinked clones: unreachable ids, as a split leaves behind.
    const std::vector<VertexId> reachable = base.PostOrder();
    std::vector<VertexId> leftovers;
    for (int i = 0; i < 3; ++i) {
      leftovers.push_back(base.CloneVertex(rng.Pick(reachable)));
    }
    for (const size_t width : {size_t{1}, size_t{3}, size_t{8}}) {
      for (const xpath::Axis axis : kAxes) {
        for (int mix = 0; mix <= kKinds; ++mix) {
          SCOPED_TRACE(std::string(xpath::AxisName(axis)) + " seed " +
                       std::to_string(seed) + " lanes " +
                       std::to_string(width) + " mix " +
                       std::to_string(mix));
          Instance instance = base;
          std::vector<SweepLane> lanes(width);
          bool all_reachable = false;
          for (size_t q = 0; q < width; ++q) {
            SweepLane& lane = lanes[q];
            lane.src = instance.AddRelation("test:src" + std::to_string(q));
            lane.dst = instance.AddRelation("test:dst" + std::to_string(q));
            // One kind for every lane, then a random kind per lane.
            const int kind = mix < kKinds
                                 ? mix
                                 : static_cast<int>(rng.Uniform(0, kKinds - 1));
            all_reachable = all_reachable || kind == kAll;
            for (const VertexId v : reachable) {
              if (kind == kAll || (kind == kSparse && rng.Chance(0.03))) {
                instance.SetBit(lane.src, v);
              }
            }
            if (kind == kSingle) instance.SetBit(lane.src, rng.Pick(reachable));
            if (kind != kEmpty) instance.SetBit(lane.src, rng.Pick(leftovers));
          }
          AxisStats stats;
          XCQ_ASSERT_OK(SweepUpward(&instance, axis, lanes, &stats));
          // A sweep that pushed from every position, from 0 or where
          // its walk outgrew the budget, visited every reachable vertex.
          if (stats.visited < reachable.size()) {
            ++walks;
          } else {
            ++dense_pushes;
          }
          if (all_reachable) EXPECT_EQ(stats.visited, reachable.size());
          for (size_t q = 0; q < width; ++q) {
            const DynamicBitset& dst = instance.RelationBits(lanes[q].dst);
            EXPECT_TRUE(dst == UpwardOracle(instance, axis, lanes[q].src))
                << "lane " << q;
            for (const VertexId v : leftovers) EXPECT_FALSE(dst.Test(v));
          }
        }
      }
    }
  }
  // Both forms must have run.
  EXPECT_GT(walks, 0u);
  EXPECT_GT(dense_pushes, 0u);
}

// --- downward sweeps against the push --------------------------------------

/// The vertex-keyed push every downward sweep once made over all of the
/// reachable DAG, kept as the oracle of the pull, the walk and the dense
/// pull: one lane, splitting. Parents first, each decided vertex pushes
/// what its edges demand of its children (src ∨ inherit·dst selected,
/// the complement unselected); a vertex demanded both ways splits, the
/// original keeping 0 and its clone, allocated there, taking 1; edges
/// re-point to the variant they demand in one deferred pass, in post
/// order and then clone order.
void DownwardPushOracle(Instance* instance, xpath::Axis axis,
                        RelationId src_relation, RelationId dst_relation) {
  const bool inherit = axis != xpath::Axis::kChild;
  const bool or_self = axis == xpath::Axis::kDescendantOrSelf;
  const std::vector<VertexId> order = instance->PostOrder();
  const size_t n0 = instance->vertex_count();
  std::vector<uint8_t> src(n0, 0);
  std::vector<uint8_t> dst(n0, 0);
  std::vector<uint8_t> one(n0, 0);
  std::vector<uint8_t> zero(n0, 0);
  std::vector<VertexId> counterpart(n0, kNoVertex);
  for (VertexId v = 0; v < n0; ++v) src[v] = instance->Test(src_relation, v);
  const auto push_from = [&](VertexId v, uint8_t mine) {
    const uint8_t out1 = src[v] | (inherit ? mine : 0);
    for (const Edge& e : instance->Children(v)) {
      one[e.child] |= out1;
      zero[e.child] |= out1 ^ 1;
    }
  };
  zero[instance->root()] = 1;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const VertexId w = *it;
    const uint8_t os = or_self ? src[w] : 0;
    if (!(one[w] & zero[w]) || os) {
      dst[w] = os | one[w];
      push_from(w, dst[w]);
      continue;
    }
    push_from(w, 0);
    const VertexId clone = instance->CloneVertex(w);
    counterpart[w] = clone;
    src.push_back(src[w]);
    dst.push_back(1);
    push_from(clone, 1);
  }
  std::vector<VertexId> repoint_order = order;
  for (VertexId v = static_cast<VertexId>(n0); v < instance->vertex_count();
       ++v) {
    repoint_order.push_back(v);
  }
  for (const VertexId v : repoint_order) {
    if (!(src[v] | (inherit ? dst[v] : 0))) continue;
    const std::span<Edge> children = instance->MutableChildren(v);
    for (Edge& e : children) {
      if (counterpart[e.child] != kNoVertex) e.child = counterpart[e.child];
    }
  }
  for (const VertexId v : repoint_order) {
    if (dst[v]) instance->SetBit(dst_relation, v);
  }
}

/// Every downward sweep equals the push, over random instances, sources
/// on both sides of the frontier budget (empty, one vertex, sparse,
/// every reachable vertex) with bits on unreachable split leftovers, and
/// lane counts up to a full byte mask (8, every bit in use). A one-lane
/// sweep splits exactly as the push does: the same clone ids, child
/// lists and columns. A wider sweep refuses iff some lane's push splits,
/// leaving the instance untouched, and otherwise answers each lane's
/// column. Walks (visited below the reachable set) and dense pulls must
/// both run, and so must a descendant walk from the root, whose closure
/// outgrows the budget.
TEST(AxisKernelTest, DownwardSweepMatchesPushOracle) {
  enum Kind { kEmpty, kSingle, kSparse, kAll, kKinds };
  const xpath::Axis kAxes[] = {xpath::Axis::kChild, xpath::Axis::kDescendant,
                               xpath::Axis::kDescendantOrSelf};
  Rng rng(2236);
  uint64_t walks = 0;
  uint64_t dense_pulls = 0;
  uint64_t splits = 0;
  uint64_t refusals = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    XCQ_ASSERT_OK_AND_ASSIGN(
        Instance base,
        CompressXml(testing::RandomXml(seed, 80 + 60 * seed, 3), {}));
    // Unlinked clones: unreachable ids, as a split leaves behind.
    const std::vector<VertexId> reachable = base.PostOrder();
    std::vector<VertexId> leftovers;
    for (int i = 0; i < 3; ++i) {
      leftovers.push_back(base.CloneVertex(rng.Pick(reachable)));
    }
    for (const size_t width : {size_t{1}, size_t{3}, size_t{8}}) {
      for (const xpath::Axis axis : kAxes) {
        for (int mix = 0; mix <= kKinds; ++mix) {
          SCOPED_TRACE(std::string(xpath::AxisName(axis)) + " seed " +
                       std::to_string(seed) + " lanes " +
                       std::to_string(width) + " mix " +
                       std::to_string(mix));
          Instance instance = base;
          std::vector<SweepLane> lanes(width);
          for (size_t q = 0; q < width; ++q) {
            SweepLane& lane = lanes[q];
            lane.src = instance.AddRelation("test:src" + std::to_string(q));
            lane.dst = instance.AddRelation("test:dst" + std::to_string(q));
            // One kind for every lane, then a random kind per lane.
            const int kind = mix < kKinds
                                 ? mix
                                 : static_cast<int>(rng.Uniform(0, kKinds - 1));
            for (const VertexId v : reachable) {
              if (kind == kAll || (kind == kSparse && rng.Chance(0.03))) {
                instance.SetBit(lane.src, v);
              }
            }
            if (kind == kSingle) instance.SetBit(lane.src, rng.Pick(reachable));
            if (kind != kEmpty) instance.SetBit(lane.src, rng.Pick(leftovers));
          }
          const Instance before = instance;

          std::vector<Instance> pushed;
          bool any_split = false;
          for (const SweepLane& lane : lanes) {
            pushed.push_back(before);
            DownwardPushOracle(&pushed.back(), axis, lane.src, lane.dst);
            any_split = any_split ||
                        pushed.back().vertex_count() > before.vertex_count();
          }

          AxisStats stats;
          const Status status =
              SweepDownward(&instance, axis, lanes,
                            width == 1 ? OnClash::kSplit : OnClash::kRefuse,
                            &stats);
          if (width > 1 && any_split) {
            ++refusals;
            EXPECT_EQ(status.code(), StatusCode::kIncompatible)
                << status.ToString();
            ExpectSameInstance(instance, before);
            continue;
          }
          XCQ_ASSERT_OK(status);
          splits += stats.splits;
          // A dense pull decides every reachable position (and every
          // clone it allocates); a walk only the sources and what lies
          // below its pushers.
          if (stats.visited < reachable.size() + stats.splits) {
            ++walks;
          } else {
            ++dense_pulls;
          }
          if (width == 1) {
            ExpectSameInstance(instance, pushed.front());
            continue;
          }
          testing::ExpectSameChildLists(instance, before);
          for (size_t q = 0; q < width; ++q) {
            EXPECT_TRUE(instance.RelationBits(lanes[q].dst) ==
                        pushed[q].RelationBits(lanes[q].dst))
                << "lane " << q;
          }
        }
      }
    }

    // descendant from the root: seeding pushes only the root's edges,
    // well within the budget, and the walk then reaches every vertex.
    SCOPED_TRACE("descendant from the root, seed " + std::to_string(seed));
    Instance from_root = base;
    const SweepLane lane{.src = from_root.AddRelation("test:src"),
                         .dst = from_root.AddRelation("test:dst")};
    from_root.SetBit(lane.src, from_root.root());
    ASSERT_LE(from_root.Children(from_root.root()).size(),
              FrontierBudget(from_root.EnsureParentIndex()));
    Instance pushed = from_root;
    DownwardPushOracle(&pushed, xpath::Axis::kDescendant, lane.src, lane.dst);
    AxisStats stats;
    XCQ_ASSERT_OK(SweepDownward(&from_root, xpath::Axis::kDescendant,
                                {&lane, 1}, OnClash::kSplit, &stats));
    EXPECT_EQ(stats.visited, reachable.size());
    ExpectSameInstance(from_root, pushed);
  }
  // Every outcome must have been exercised.
  EXPECT_GT(walks, 0u);
  EXPECT_GT(dense_pulls, 0u);
  EXPECT_GT(splits, 0u);
  EXPECT_GT(refusals, 0u);
}

}  // namespace
}  // namespace xcq::engine
