// bench_minimize — the post-query in-place reclaim against the rebuild
// it must equal.
//
// Splitting queries grow the compressed instance (Thm. 3.6); a serving
// session reclaims that growth by re-minimizing after every query with
// the stateless in-place pass (`MinimizeInPlace`). This bench drives a
// split-heavy query rotation through three corpora in two modes: `off`
// (no reclaim) and `on` (`minimize_after_query`). After every query of
// the `on` session it rebuilds `Minimize` of the same instance and dies
// loudly unless the in-place result has the rebuild's reachable |V| and
// |E| and selects the same DAG and tree nodes. The rebuilds' summed time
// is reported as `full_s`, so in-place vs. rebuild cost stays visible.
//
// Columns: corpus, mode, #queries, splits, final reachable |V| / |E|,
// summed selected tree nodes (must be identical across modes), label /
// eval / minimize / rebuild seconds. JSON rows land in
// BENCH_minimize.json for bench/compare_bench.py (counts exact, timings
// thresholded).

#include <optional>

#include "bench_util.h"

namespace xcq::bench {
namespace {

struct ModeResult {
  std::string mode;
  uint64_t queries = 0;
  uint64_t splits = 0;
  uint64_t vertices = 0;       // reachable after the sequence
  uint64_t edges = 0;          // reachable RLE edges after the sequence
  uint64_t tree_selected = 0;  // summed selected tree nodes, all queries
  double label_s = 0.0;
  double eval_s = 0.0;
  double minimize_s = 0.0;
  double full_s = 0.0;  // summed `Minimize` rebuilds of the `on` instance
};

/// The query rotation mirrors a serving session: mostly selective
/// Appendix-A queries (Q5's sibling axes split locally, Q2–Q4 flip a
/// small result set), plus one whole-document sibling sweep per round —
/// the heaviest splitter there is, every multiplicity run straddling a
/// selection boundary. Split copies merge back as soon as the next
/// query drops the distinguishing selection.
std::vector<std::string> QueryRotation(std::string_view corpus_name,
                                       int rounds) {
  std::vector<std::string> rotation;
  const Result<corpus::QuerySet> set = corpus::QueriesFor(corpus_name);
  if (set.ok()) {
    rotation.emplace_back(set->queries[1]);  // Q2: path, no splits
    rotation.emplace_back(set->queries[4]);  // Q5: selective siblings
    rotation.emplace_back(set->queries[2]);  // Q3: descendant + string
    rotation.emplace_back("//*/following-sibling::*");
    rotation.emplace_back(set->queries[3]);  // Q4: branching predicates
  } else {
    rotation = {"//*", "//*/following-sibling::*", "/*",
                "//*/preceding-sibling::*"};
  }
  std::vector<std::string> sequence;
  for (int r = 0; r < rounds; ++r) {
    sequence.insert(sequence.end(), rotation.begin(), rotation.end());
  }
  return sequence;
}

/// Checks the session's in-place result against `Minimize` of the same
/// instance; returns false (after reporting) on any difference.
bool MatchesRebuild(const char* corpus, const std::string& query,
                    const Instance& instance, double* full_s) {
  Timer timer;
  const Instance full = Unwrap(Minimize(instance), "Minimize");
  *full_s += timer.Seconds();
  const RelationId mine = instance.FindRelation(engine::kResultRelation);
  const RelationId theirs = full.FindRelation(engine::kResultRelation);
  const uint64_t dag[2] = {SelectedDagNodeCount(instance, mine),
                           SelectedDagNodeCount(full, theirs)};
  const uint64_t tree[2] = {SelectedTreeNodeCount(instance, mine),
                            SelectedTreeNodeCount(full, theirs)};
  if (instance.ReachableCount() == full.vertex_count() &&
      instance.ReachableEdgeCount() == full.rle_edge_count() &&
      dag[0] == dag[1] && tree[0] == tree[1]) {
    return true;
  }
  std::fprintf(stderr,
               "FATAL %s after %s: in-place minimize differs from "
               "Minimize (|V| %zu vs %zu, |E| %llu vs %llu, dag_sel %llu "
               "vs %llu, tree_sel %llu vs %llu)\n",
               corpus, query.c_str(), instance.ReachableCount(),
               full.vertex_count(),
               static_cast<unsigned long long>(instance.ReachableEdgeCount()),
               static_cast<unsigned long long>(full.rle_edge_count()),
               static_cast<unsigned long long>(dag[0]),
               static_cast<unsigned long long>(dag[1]),
               static_cast<unsigned long long>(tree[0]),
               static_cast<unsigned long long>(tree[1]));
  return false;
}

/// Runs `queries` with reclaim off or on; nullopt when an `on` pass
/// differs from its rebuild.
std::optional<ModeResult> RunMode(const char* corpus, const std::string& xml,
                                  const std::vector<std::string>& queries,
                                  bool minimize) {
  SessionOptions options;
  options.minimize_after_query = minimize;
  ModeResult result;
  result.mode = minimize ? "on" : "off";

  QuerySession session =
      Unwrap(QuerySession::Open(xml, options), "QuerySession::Open");
  for (const std::string& query : queries) {
    const QueryOutcome outcome = Unwrap(session.Run(query), query.c_str());
    ++result.queries;
    result.splits += outcome.stats.splits;
    result.tree_selected += outcome.selected_tree_nodes;
    result.label_s += outcome.label_seconds;
    result.eval_s += outcome.stats.seconds;
    result.minimize_s += outcome.minimize_seconds;
    if (minimize && !MatchesRebuild(corpus, query, session.instance(),
                                    &result.full_s)) {
      return std::nullopt;
    }
  }
  result.vertices = session.instance().ReachableCount();
  result.edges = session.instance().ReachableEdgeCount();
  return result;
}

}  // namespace
}  // namespace xcq::bench

int main(int argc, char** argv) {
  using namespace xcq;
  using namespace xcq::bench;

  const BenchArgs args = BenchArgs::Parse(argc, argv);
  BenchReport report("minimize", args);
  constexpr int kRounds = 4;

  std::printf("In-place re-minimization after splitting queries, checked "
              "against Minimize (rounds=%d)\n",
              kRounds);
  std::printf("%-12s %-5s %8s %9s %9s %10s %12s %9s %9s %11s %9s\n",
              "corpus", "mode", "queries", "splits", "|V|", "|E|",
              "tree_sel", "label_s", "eval_s", "minimize_s", "full_s");
  PrintRule(111);

  const char* kCorpora[] = {"Shakespeare", "SwissProt", "TreeBank"};
  for (const char* name : kCorpora) {
    const corpus::CorpusGenerator* generator =
        Unwrap(corpus::FindCorpus(name), "FindCorpus");
    if (!args.Selected(*generator)) continue;

    corpus::GenerateOptions gen;
    gen.target_nodes = args.TargetNodes(*generator);
    gen.seed = args.seed;
    const std::string xml = generator->Generate(gen);
    const std::vector<std::string> queries =
        QueryRotation(generator->name(), kRounds);

    ModeResult results[2];
    for (int m = 0; m < 2; ++m) {
      const std::optional<ModeResult> run =
          RunMode(name, xml, queries, /*minimize=*/m == 1);
      if (!run.has_value()) return 1;
      results[m] = *run;
      const ModeResult& r = results[m];
      std::printf("%-12s %-5s %8llu %9llu %9llu %10llu %12llu %9.4f "
                  "%9.4f %11.4f %9.4f\n",
                  name, r.mode.c_str(),
                  static_cast<unsigned long long>(r.queries),
                  static_cast<unsigned long long>(r.splits),
                  static_cast<unsigned long long>(r.vertices),
                  static_cast<unsigned long long>(r.edges),
                  static_cast<unsigned long long>(r.tree_selected),
                  r.label_s, r.eval_s, r.minimize_s, r.full_s);
      report.Row()
          .Set("corpus", name)
          .Set("mode", r.mode)
          .Set("queries", r.queries)
          .Set("splits", r.splits)
          .Set("vertices", r.vertices)
          .Set("edges", r.edges)
          .Set("tree_selected", r.tree_selected)
          .Set("label_s", r.label_s)
          .Set("eval_s", r.eval_s)
          .Set("minimize_s", r.minimize_s)
          .Set("full_s", r.full_s);
    }

    // Reclaim must not change any answer.
    if (results[0].tree_selected != results[1].tree_selected) {
      std::fprintf(stderr,
                   "FATAL %s: reclaim changed the answers (tree_sel %llu "
                   "off vs %llu on)\n",
                   name,
                   static_cast<unsigned long long>(results[0].tree_selected),
                   static_cast<unsigned long long>(results[1].tree_selected));
      return 1;
    }
    if (results[1].minimize_s > 0) {
      std::printf("%-12s in-place reclaim speedup over rebuild: %.2fx\n",
                  name, results[1].full_s / results[1].minimize_s);
    }
    PrintRule(111);
  }
  report.Finish();
  return 0;
}
