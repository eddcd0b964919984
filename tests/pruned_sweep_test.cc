// Path-summary pruned sweeps (docs/INTERNALS.md §9).
//
// The contract under test: evaluation with `prune_sweeps` on is
// *bit-identical* to the full-sweep oracle — same answers, same splits,
// same resulting instance — for every corpus and minimize mode, while
// visiting no more vertices than the full sweep.
// The summary itself is pinned against an independent oracle (every
// realized (vertex, path) pair recomputed by walking the DAG), and its
// validity tracking across structural and non-structural mutations is
// pinned explicitly: rebuilt after splits and in-place minimization,
// kept across edge compaction and relation-bit churn.

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"
#include "xcq/util/rng.h"
#include "xcq/util/timer.h"

namespace xcq {
namespace {

Instance CompressAllTags(const std::string& xml) {
  CompressOptions options;  // LabelMode::kAllTags by default
  auto result = CompressXml(xml, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).Value();
}

/// The summary label of `v`: the sorted ids of the live, named, non-xcq
/// relations whose column holds v — recomputed from the schema, not
/// from the summary's interned tables.
std::vector<RelationId> OracleLabel(const Instance& instance, VertexId v) {
  std::vector<RelationId> label;
  for (const RelationId r : instance.LiveRelations()) {
    const std::string& name = instance.schema().Name(r);
    if (name.empty() || name.rfind("xcq:", 0) == 0) continue;
    const DynamicBitset& column = instance.RelationBits(r);
    if (v < column.size() && column.Test(v)) label.push_back(r);
  }
  std::sort(label.begin(), label.end());
  return label;
}

/// Recomputes every (vertex, summary node) realization pair by walking
/// the DAG from the root, following trie edges by child label, and
/// asserts the summary's CSR slices hold exactly those pairs.
void ExpectSummaryMatchesOracle(const Instance& instance) {
  const PathSummary& s = instance.EnsurePathSummary();
  ASSERT_FALSE(s.saturated);
  ASSERT_TRUE(instance.path_summary_valid());
  const size_t n = instance.vertex_count();
  ASSERT_EQ(s.vertex_begin.size(), n + 1);

  const auto trie_child = [&](uint32_t parent,
                              const std::vector<RelationId>& label) {
    for (uint32_t j = 0; j < s.nodes.size(); ++j) {
      if (s.nodes[j].parent == parent && s.labels[s.nodes[j].label] == label) {
        return j;
      }
    }
    return PathSummary::kNoNode;
  };

  std::vector<std::set<uint32_t>> expected(n);
  std::set<std::pair<VertexId, uint32_t>> seen;
  std::vector<std::pair<VertexId, uint32_t>> work;
  if (instance.root() != kNoVertex && !s.nodes.empty()) {
    const uint32_t root_node =
        trie_child(PathSummary::kNoNode, OracleLabel(instance, instance.root()));
    ASSERT_NE(root_node, PathSummary::kNoNode)
        << "root path missing from the summary";
    ASSERT_EQ(root_node, 0u) << "root path must be node 0";
    work.emplace_back(instance.root(), root_node);
    seen.insert(work.back());
  }
  while (!work.empty()) {
    const auto [v, node] = work.back();
    work.pop_back();
    expected[v].insert(node);
    for (const Edge& e : instance.Children(v)) {
      const uint32_t child_node =
          trie_child(node, OracleLabel(instance, e.child));
      ASSERT_NE(child_node, PathSummary::kNoNode)
          << "path of vertex " << e.child << " missing from the summary";
      if (seen.insert({e.child, child_node}).second) {
        work.emplace_back(e.child, child_node);
      }
    }
  }

  for (size_t v = 0; v < n; ++v) {
    const std::set<uint32_t> realized(
        s.vertex_nodes.begin() + s.vertex_begin[v],
        s.vertex_nodes.begin() + s.vertex_begin[v + 1]);
    ASSERT_EQ(realized, expected[v]) << "vertex " << v;
  }
}

SessionOptions PruningOptions(bool prune, bool minimize) {
  SessionOptions options;
  options.prune_sweeps = prune;
  options.minimize_after_query = minimize;
  options.incremental_minimize = minimize;
  return options;
}

/// Runs `queries` through two lockstep sessions — pruned and the
/// full-sweep oracle — and asserts bit-level agreement after every
/// query: answers, splits, the reachable structure the query left
/// behind, and (with `minimize`) the re-minimized structure. Also
/// checks the pruning counters stay on their own side: the oracle never
/// prunes, the pruned run never visits more than the full sweep would.
/// `summary_nodes` receives, per query, the size of the summary the
/// pruned run consulted (0 = over budget, or no gated sweep).
void ExpectPrunedMatchesUnpruned(
    const std::string& xml, const std::vector<std::string>& queries,
    bool minimize, std::vector<uint64_t>* summary_nodes = nullptr) {
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession pruned,
      QuerySession::Open(xml, PruningOptions(true, minimize)));
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession oracle,
      QuerySession::Open(xml, PruningOptions(false, minimize)));

  if (summary_nodes != nullptr) summary_nodes->clear();
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome p, pruned.Run(query));
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome o, oracle.Run(query));

    EXPECT_EQ(p.selected_tree_nodes, o.selected_tree_nodes);
    EXPECT_EQ(p.selected_dag_nodes, o.selected_dag_nodes);
    EXPECT_EQ(p.stats.splits, o.stats.splits);
    // Pre-minimize structure after the sweep (Evaluate measures before
    // any session re-minimization).
    EXPECT_EQ(p.stats.vertices_after, o.stats.vertices_after);
    EXPECT_EQ(p.stats.edges_after, o.stats.edges_after);

    EXPECT_EQ(o.stats.pruned_sweeps, 0u);
    EXPECT_EQ(o.stats.skipped_sweeps, 0u);
    EXPECT_EQ(o.stats.summary_builds, 0u);
    EXPECT_LE(p.stats.sweep_visited, p.stats.sweep_full);
    if (summary_nodes != nullptr) {
      summary_nodes->push_back(p.stats.summary_nodes);
    }

    // Post-minimize (or just post-query) structure.
    EXPECT_EQ(pruned.instance().ReachableCount(),
              oracle.instance().ReachableCount());
    EXPECT_EQ(pruned.instance().ReachableEdgeCount(),
              oracle.instance().ReachableEdgeCount());
    const RelationId rp =
        pruned.instance().FindRelation(engine::kResultRelation);
    const RelationId ro =
        oracle.instance().FindRelation(engine::kResultRelation);
    ASSERT_NE(rp, kNoRelation);
    ASSERT_NE(ro, kNoRelation);
    EXPECT_EQ(SelectedTreeNodeCount(pruned.instance(), rp),
              SelectedTreeNodeCount(oracle.instance(), ro));
    // Both sessions run the same kernels, so the instances are
    // bit-identical: same raw result column, same child lists.
    EXPECT_TRUE(pruned.instance().RelationBits(rp) ==
                oracle.instance().RelationBits(ro));
    testing::ExpectSameChildLists(pruned.instance(), oracle.instance());
    // The exact answer: the selected tree-node sets.
    XCQ_ASSERT_OK_AND_ASSIGN(const DecompressedTree pt,
                             Decompress(pruned.instance(), {}));
    XCQ_ASSERT_OK_AND_ASSIGN(const DecompressedTree ot,
                             Decompress(oracle.instance(), {}));
    EXPECT_EQ(pt.RelationSet(engine::kResultRelation),
              ot.RelationSet(engine::kResultRelation));
  }
  XCQ_ASSERT_OK(pruned.instance().Validate());
}

/// The generic mix: recursive descent, splitting sibling walks, and an
/// upward tail — the same pool the traversal-cache oracle drives.
std::vector<std::string> QueryPool(std::string_view corpus_name) {
  std::vector<std::string> pool = {
      "//*/following-sibling::*",
      "//*",
      "/*",
      "//*/preceding-sibling::*/parent::*",
  };
  const Result<corpus::QuerySet> set = corpus::QueriesFor(corpus_name);
  if (set.ok()) {
    for (const std::string_view q : set->queries) pool.emplace_back(q);
  }
  return pool;
}

TEST(PrunedSweepEquivalenceTest, RandomizedSequencesOverEveryCorpus) {
  size_t corpus_index = 0;
  for (const corpus::CorpusGenerator* generator : corpus::AllCorpora()) {
    SCOPED_TRACE(std::string(generator->name()));
    corpus::GenerateOptions gen;
    gen.target_nodes = 900;
    gen.seed = 31 + corpus_index;
    const std::string xml = generator->Generate(gen);

    const std::vector<std::string> pool = QueryPool(generator->name());
    Rng rng(4321 + corpus_index);
    std::vector<std::string> sequence;
    for (int i = 0; i < 6; ++i) sequence.push_back(rng.Pick(pool));

    std::vector<uint64_t> summary_nodes;
    ExpectPrunedMatchesUnpruned(xml, sequence, /*minimize=*/false,
                                &summary_nodes);
    ExpectPrunedMatchesUnpruned(xml, sequence, /*minimize=*/true);
    // The budget decision. Every corpus but TreeBank is within budget,
    // so some query of the sequence consults its summary. TreeBank's
    // recursive nesting realizes more (vertex, path) pairs than its DAG
    // has vertices + edges once the session carries Appendix-A labels,
    // so from the first such query on the summary saturates. (Before
    // that, a wildcard-only session labels nothing but the root, and
    // its summary is a small depth chain, within budget.)
    ASSERT_EQ(summary_nodes.size(), sequence.size());
    if (generator->name() == "TreeBank") {
      XCQ_ASSERT_OK_AND_ASSIGN(const corpus::QuerySet appendix,
                               corpus::QueriesFor(generator->name()));
      const size_t first = static_cast<size_t>(
          std::find_first_of(sequence.begin(), sequence.end(),
                             appendix.queries.begin(),
                             appendix.queries.end()) -
          sequence.begin());
      ASSERT_LT(first, sequence.size()) << "no Appendix-A query drawn";
      for (size_t i = first; i < sequence.size(); ++i) {
        EXPECT_EQ(summary_nodes[i], 0u)
            << "over-budget summary consulted by " << sequence[i];
      }
    } else {
      EXPECT_GT(*std::max_element(summary_nodes.begin(),
                                  summary_nodes.end()),
                0u)
          << "pruning never consulted a summary";
    }
    ++corpus_index;
  }
}

TEST(PrunedSweepEquivalenceTest, EightQuerySequencesOverEveryCorpus) {
  // Longer per-corpus sequences on a second set of documents, pruned
  // and unpruned sessions in lockstep.
  size_t corpus_index = 0;
  for (const corpus::CorpusGenerator* generator : corpus::AllCorpora()) {
    SCOPED_TRACE(std::string(generator->name()));
    corpus::GenerateOptions gen;
    gen.target_nodes = 600;
    gen.seed = 131 + corpus_index;
    const std::string xml = generator->Generate(gen);

    const std::vector<std::string> pool = QueryPool(generator->name());
    Rng rng(99 + corpus_index);
    std::vector<std::string> sequence;
    for (int i = 0; i < 8; ++i) sequence.push_back(rng.Pick(pool));
    ExpectPrunedMatchesUnpruned(xml, sequence, /*minimize=*/false);
    ++corpus_index;
  }
}

TEST(PathSummaryTest, MatchesOracleOnExampleAndAfterSplits) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  ExpectSummaryMatchesOracle(instance);

  // Split something (sibling axis on a repetitive document), then the
  // rebuilt summary must match the oracle on the grown DAG too.
  Instance rep = CompressAllTags(
      "<r><a><b/><b/><b/></a><a><b/><b/><b/></a><a><c/><b/></a></r>");
  ExpectSummaryMatchesOracle(rep);
  XCQ_ASSERT_OK_AND_ASSIGN(
      const algebra::QueryPlan plan,
      algebra::CompileString("//b/following-sibling::b"));
  engine::EvalStats stats;
  XCQ_ASSERT_OK(
      engine::Evaluate(&rep, plan, engine::EvalOptions{}, &stats).status());
  ExpectSummaryMatchesOracle(rep);
  XCQ_ASSERT_OK(rep.Validate());
}

TEST(PathSummaryTest, MatchesOracleOnEveryWithinBudgetCorpus) {
  // Real shapes: every corpus with Appendix-A queries, at 600 and 900
  // nodes under their labels, before and after a splitting query. Only TreeBank is over
  // budget (see BudgetSaturatesOnlyWhereSummaryOutgrowsTheDag); a
  // saturated summary has no slices to check.
  XCQ_ASSERT_OK_AND_ASSIGN(
      const algebra::QueryPlan split,
      algebra::CompileString("//*/following-sibling::*"));
  size_t labelled = 0;
  size_t checked = 0;
  for (const corpus::CorpusGenerator* generator : corpus::AllCorpora()) {
    const Result<corpus::QuerySet> appendix =
        corpus::QueriesFor(generator->name());
    if (!appendix.ok()) continue;  // TPC-D has no Appendix-A queries
    ++labelled;
    const std::vector<std::string> queries(appendix->queries.begin(),
                                           appendix->queries.end());
    XCQ_ASSERT_OK_AND_ASSIGN(const xpath::QueryRequirements reqs,
                             CollectBatchRequirements(queries));
    CompressOptions labels;
    labels.mode = LabelMode::kSchema;
    labels.tags = reqs.tags;
    labels.patterns = reqs.patterns;
    for (const uint64_t nodes : {600, 900}) {
      SCOPED_TRACE(std::string(generator->name()) + " at " +
                   std::to_string(nodes) + " nodes");
      corpus::GenerateOptions gen;
      gen.target_nodes = nodes;
      XCQ_ASSERT_OK_AND_ASSIGN(Instance instance,
                               CompressXml(generator->Generate(gen), labels));
      if (instance.EnsurePathSummary().saturated) {
        EXPECT_EQ(generator->name(), "TreeBank");
        continue;
      }
      ExpectSummaryMatchesOracle(instance);
      engine::EvalStats stats;
      XCQ_ASSERT_OK(
          engine::Evaluate(&instance, split, engine::EvalOptions{}, &stats)
              .status());
      EXPECT_GT(stats.splits, 0u);
      ExpectSummaryMatchesOracle(instance);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2 * (labelled - 1));
}

TEST(PathSummaryTest, SharedVertexRealizesEachPathOnce) {
  // x is reached through non-adjacent runs of itself ([x, y, x] under
  // p1), through two parents realizing the same path r/p (p1 and p2,
  // themselves non-adjacent runs under r), and through a second path
  // r/q. The build must realize r/p/x once and r/q/x once.
  Instance inst;
  const VertexId x = inst.AddVertex();
  const VertexId y = inst.AddVertex();
  const VertexId p1 = inst.AddVertex();
  const VertexId p2 = inst.AddVertex();
  const VertexId q = inst.AddVertex();
  const VertexId r = inst.AddVertex();
  const std::vector<Edge> under_p1 = {{x, 1}, {y, 2}, {x, 3}};
  const std::vector<Edge> under_p2 = {{y, 1}, {x, 1}};
  const std::vector<Edge> under_q = {{x, 1}};
  const std::vector<Edge> under_r = {{p1, 1}, {q, 1}, {p1, 1}, {p2, 1}};
  inst.SetEdges(p1, under_p1);
  inst.SetEdges(p2, under_p2);
  inst.SetEdges(q, under_q);
  inst.SetEdges(r, under_r);
  inst.SetRoot(r);
  inst.SetBit(inst.AddRelation("r"), r);
  const RelationId p = inst.AddRelation("p");
  inst.SetBit(p, p1);
  inst.SetBit(p, p2);
  inst.SetBit(inst.AddRelation("q"), q);
  inst.SetBit(inst.AddRelation("x"), x);
  inst.SetBit(inst.AddRelation("y"), y);
  XCQ_ASSERT_OK(inst.Validate());

  ExpectSummaryMatchesOracle(inst);
  const PathSummary& s = inst.EnsurePathSummary();
  // Paths r, r/p, r/q, r/p/x, r/p/y, r/q/x; x realizes two of them, every
  // other vertex one.
  EXPECT_EQ(s.nodes.size(), 6u);
  EXPECT_EQ(s.vertex_nodes.size(), 7u);
  EXPECT_EQ(s.vertex_begin[x + 1] - s.vertex_begin[x], 2u);
  EXPECT_EQ(s.vertex_begin[y + 1] - s.vertex_begin[y], 1u);
  for (uint32_t j = 1; j < s.nodes.size(); ++j) {
    EXPECT_LT(s.nodes[j].parent, j) << "nodes must stay parents-first";
  }
}

TEST(PathSummaryTest, ColdBuildThenWarmReuse) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  // `/bib/book` runs a gated child sweep (a bare `//label` from the
  // root is answered closed-form without consulting the summary), and
  // book vertices occur only as children of the selected root, so the
  // plan cannot split and the second evaluation sees untouched
  // structure.
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("/bib/book"));

  // Cold: the first pruned evaluation pays exactly one summary build.
  engine::EvalStats cold;
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, &cold)
          .status());
  EXPECT_EQ(cold.summary_builds, 1u);
  EXPECT_GT(cold.summary_nodes, 0u);

  // Warm: a non-splitting plan left the structure alone, so the next
  // evaluation reuses the summary without rebuilding.
  EXPECT_TRUE(instance.path_summary_valid());
  engine::EvalStats warm;
  XCQ_ASSERT_OK(
      engine::Evaluate(&instance, plan, engine::EvalOptions{}, &warm)
          .status());
  EXPECT_EQ(warm.summary_builds, 0u);
  EXPECT_EQ(warm.summary_nodes, cold.summary_nodes);
  EXPECT_EQ(warm.sweep_visited, cold.sweep_visited);
  EXPECT_EQ(instance.path_summary_builds(), 1u);
}

TEST(PathSummaryTest, ValidityTracksStructureAndSchema) {
  Instance instance = CompressAllTags(testing::BibExampleXml());
  (void)instance.EnsurePathSummary();
  EXPECT_TRUE(instance.path_summary_valid());
  const uint64_t builds = instance.path_summary_builds();

  // Repeated reads do not rebuild.
  (void)instance.EnsurePathSummary();
  EXPECT_EQ(instance.path_summary_builds(), builds);

  // Non-structural churn keeps it valid: scratch columns, xcq: result
  // relations, edge compaction, identical rewrites.
  const RelationId scratch = instance.AcquireScratchRelation();
  instance.SetBit(scratch, instance.root());
  instance.ReleaseScratchRelation(scratch);
  instance.CompactEdges();
  std::vector<Edge> same(instance.Children(instance.root()).begin(),
                         instance.Children(instance.root()).end());
  instance.SetEdges(instance.root(), same);
  EXPECT_TRUE(instance.path_summary_valid());
  EXPECT_EQ(instance.path_summary_builds(), builds);

  // A structural mutation invalidates; the next Ensure rebuilds.
  const VertexId clone = instance.CloneVertex(instance.root());
  (void)clone;
  EXPECT_FALSE(instance.path_summary_valid());
  (void)instance.EnsurePathSummary();
  EXPECT_EQ(instance.path_summary_builds(), builds + 1);
  EXPECT_TRUE(instance.path_summary_valid());

  // A *label schema* change invalidates even without a structure bump:
  // the label alphabet the trie was interned over is gone.
  const RelationId added = instance.AddRelation("brand-new-tag");
  instance.SetBit(added, instance.root());
  EXPECT_FALSE(instance.path_summary_valid());
  (void)instance.EnsurePathSummary();
  EXPECT_TRUE(instance.path_summary_valid());
  EXPECT_EQ(instance.path_summary_builds(), builds + 2);
}

TEST(PathSummaryTest, InvalidatedByInPlaceMinimizeThatChangesStructure) {
  // A splitting query grows the DAG; with minimize_after_query the
  // in-place pass re-compresses it. Both steps are structural: a
  // summary bound before the query must be stale after it, and the next
  // pruned query must rebuild against the minimized DAG and still agree
  // with the unpruned session.
  const std::string xml =
      "<r><a><b/><b/><b/></a><a><b/><b/><b/></a><a><c/><b/></a></r>";
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession session,
      QuerySession::Open(xml, PruningOptions(true, true)));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome split,
                           session.Run("//b/following-sibling::b"));
  EXPECT_GT(split.stats.splits, 0u);
  EXPECT_GE(split.stats.summary_builds, 1u);
  ExpectSummaryMatchesOracle(session.instance());

  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome next, session.Run("//a/b"));
  EXPECT_GE(next.stats.summary_builds, 1u)
      << "minimize changed the structure; the summary must rebuild";
  ExpectSummaryMatchesOracle(session.instance());
  ExpectPrunedMatchesUnpruned(xml, {"//b/following-sibling::b", "//a/b"},
                              /*minimize=*/true);
}

TEST(PathSummaryTest, BudgetSaturatesOnlyWhereSummaryOutgrowsTheDag) {
  // Within budget: the bibliography realizes fewer (vertex, path) pairs
  // than its DAG has reachable vertices + RLE edges.
  const std::string bib = testing::BibExampleXml();
  Instance within = CompressAllTags(bib);
  const PathSummary& small = within.EnsurePathSummary();
  EXPECT_FALSE(small.saturated);
  EXPECT_FALSE(small.nodes.empty());
  EXPECT_LE(small.vertex_nodes.size(),
            within.ReachableCount() + within.ReachableEdgeCount());

  // Over budget: TreeBank's recursive nesting under its Appendix-A
  // labels realizes more pairs than the DAG has vertices + edges.
  corpus::GenerateOptions gen;
  gen.target_nodes = 600;
  const std::string treebank = corpus::TreeBank().Generate(gen);
  XCQ_ASSERT_OK_AND_ASSIGN(const corpus::QuerySet appendix,
                           corpus::QueriesFor("TreeBank"));
  const std::vector<std::string> queries(appendix.queries.begin(),
                                         appendix.queries.end());
  XCQ_ASSERT_OK_AND_ASSIGN(const xpath::QueryRequirements reqs,
                           CollectBatchRequirements(queries));
  CompressOptions labels;
  labels.mode = LabelMode::kSchema;
  labels.tags = reqs.tags;
  labels.patterns = reqs.patterns;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance over, CompressXml(treebank, labels));
  const PathSummary& saturated = over.EnsurePathSummary();
  EXPECT_TRUE(saturated.saturated);
  EXPECT_TRUE(saturated.nodes.empty());
  EXPECT_TRUE(saturated.vertex_nodes.empty());
  // Saturated stays "built" for the generation: no rebuild per query.
  const uint64_t builds = over.path_summary_builds();
  (void)over.EnsurePathSummary();
  EXPECT_TRUE(over.path_summary_valid());
  EXPECT_EQ(over.path_summary_builds(), builds);

  // Either side of the budget, pruned evaluation equals the full sweeps.
  ExpectPrunedMatchesUnpruned(
      bib, {"/bib/book", "//author/parent::*", "//title/following-sibling::*"},
      /*minimize=*/false);
  std::vector<uint64_t> summary_nodes;
  ExpectPrunedMatchesUnpruned(treebank, queries, /*minimize=*/false,
                              &summary_nodes);
  for (const uint64_t nodes : summary_nodes) EXPECT_EQ(nodes, 0u);
}

TEST(PrunedSweepStatsTest, PruneBindTimesTheGates) {
  // The pruner's work (summary binding, abstract pass, region builds)
  // runs inside the sweep gates; prune_bind_seconds must see it. A
  // cold evaluation builds the summary inside its first gate, so its
  // prune_bind_seconds must cover at least a good part of what the
  // same build takes on its own.
  corpus::GenerateOptions gen;
  gen.target_nodes = 25000;
  Instance base = CompressAllTags(corpus::SwissProt().Generate(gen));
  XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                           algebra::CompileString("//Record/protein"));

  Instance pruned = base;
  engine::EvalStats on;
  XCQ_ASSERT_OK(
      engine::Evaluate(&pruned, plan, engine::EvalOptions{}, &on).status());
  EXPECT_GT(on.summary_nodes, 0u);
  EXPECT_GT(on.pruned_sweeps, 0u);

  Instance full = base;
  engine::EvalOptions options;
  options.prune_sweeps = false;
  engine::EvalStats off;
  XCQ_ASSERT_OK(engine::Evaluate(&full, plan, options, &off).status());
  EXPECT_EQ(off.prune_bind_seconds, 0.0);

  double build_seconds = 1e9;
  for (int i = 0; i < 3; ++i) {
    const Instance cold = base;
    const Timer timer;
    (void)cold.EnsurePathSummary();
    build_seconds = std::min(build_seconds, timer.Seconds());
  }
  EXPECT_GE(on.prune_bind_seconds, 0.25 * build_seconds);
}

TEST(PrunedSweepStatsTest, RecursiveDescentVisitsLessThanFullSweep) {
  // A label-targeted recursive query on a corpus with many labels must
  // actually save work, not just match the oracle: the pruned sweeps
  // visit a strict subset of what the full sweeps walk.
  corpus::GenerateOptions gen;
  gen.target_nodes = 2000;
  gen.seed = 7;
  const std::string xml = corpus::Shakespeare().Generate(gen);
  SessionOptions options = PruningOptions(true, false);
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open(xml, options));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome outcome,
                           session.Run("//SPEECH/SPEAKER"));
  EXPECT_GT(outcome.stats.pruned_sweeps + outcome.stats.skipped_sweeps, 0u);
  EXPECT_LT(outcome.stats.sweep_visited, outcome.stats.sweep_full);
}

}  // namespace
}  // namespace xcq
