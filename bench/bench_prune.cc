// bench_prune — path-summary sweep pruning vs full sweeps
// (docs/INTERNALS.md §9), over the three serving corpora, one query per
// axis family (recursive descent, upward, sibling) plus the corpus'
// Appendix-A navigation query.
//
// Per (corpus, query) it evaluates the same compiled plan twice from
// the same base instance — summary pruning on and off — and records
//   * pruned_s / full_s:   wall time of each evaluation,
//   * sweep_visited / sweep_full: vertices the pruned run visited vs
//     what the full sweeps would have visited (the pruning headline),
//   * summary_nodes:       distinct root-to-label paths of the corpus
//     (0 when the summary is over budget and pruning stands down),
//   * selected_tree, splits: the answer shape (identical by contract).
//
// Self-checks (non-zero exit on violation):
//   * pruned and full runs must agree on splits, post-evaluation
//     structure, and the exact selected tree-node set (answers are
//     compared through decompression, which is numbering-independent);
//   * every row has a summary (summary_nodes > 0) exactly when its
//     corpus is within the summary budget (realizations <= reachable
//     vertices + RLE edges): Shakespeare and SwissProt are, TreeBank
//     is not;
//   * descent rows of within-budget corpora must visit < 50% of what
//     the full sweeps would — the regression gate for the whole
//     subsystem (the checked-in baseline additionally exact-matches
//     the counters).

#include <cstring>

#include "bench_util.h"
#include "xcq/util/timer.h"

namespace xcq::bench {
namespace {

struct PruneQuery {
  const char* family;  // "descent" | "upward" | "sibling" | "appendix"
  const char* text;
};

struct CorpusQueries {
  const char* corpus;
  bool within_budget;  // expected summary budget decision
  PruneQuery queries[4];
};

// One query per axis family. The descent rows are the paper's
// navigation shape (`//` recursion into a tagged region); upward and
// sibling rows start from the same regions so their sweeps have real
// sources. Descent anchors are chosen with narrow realization sets:
// an anchor whose label is pervasive (TreeBank `//S//…`) defeats
// pruning by construction, because DAG sharing makes nearly every
// vertex realize *some* path under it, and split parity forces the
// kernels to visit all of them. TreeBank's summary is over budget, so
// its rows run the unpruned kernels (only `//`-from-root closed forms).
constexpr CorpusQueries kWorkload[] = {
    {"Shakespeare",
     true,
     {
         {"descent", "//SPEECH/SPEAKER"},
         {"upward", "//LINE/ancestor::SCENE"},
         {"sibling", "//SPEECH/following-sibling::SPEECH/SPEAKER"},
         {"appendix", "/all/PLAY/ACT/SCENE/SPEECH/LINE"},
     }},
    {"SwissProt",
     true,
     {
         {"descent", "//Record/protein"},
         {"upward", "//topic/parent::comment"},
         {"sibling", "//comment/following-sibling::comment/topic"},
         {"appendix", "/ROOT/Record/comment/topic"},
     }},
    {"TreeBank",
     false,
     {
         {"descent", "//FILE/EMPTY/S/VP"},
         {"upward", "//NP/ancestor::S"},
         {"sibling", "//VP/following-sibling::NP"},
         {"appendix", "/alltreebank/FILE/EMPTY/S/VP/S/VP/NP"},
     }},
};

struct RunResult {
  double seconds = 0.0;
  engine::EvalStats stats;
  uint64_t selected_tree = 0;
  uint64_t reachable_vertices = 0;
  DynamicBitset tree_set;  // selected tree nodes, document order
};

RunResult RunOnce(const Instance& base, const algebra::QueryPlan& plan,
                  bool prune) {
  Instance instance = base;
  engine::EvalOptions options;
  options.prune_sweeps = prune;
  RunResult out;
  Timer timer;
  const RelationId result = Unwrap(
      engine::Evaluate(&instance, plan, options, &out.stats), "evaluate");
  out.seconds = timer.Seconds();
  out.selected_tree = SelectedTreeNodeCount(instance, result);
  out.reachable_vertices = instance.ReachableCount();
  const DecompressedTree tree =
      Unwrap(Decompress(instance), "decompress");
  out.tree_set = tree.RelationSet(instance.schema().Name(result));
  return out;
}

}  // namespace

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  BenchReport report("prune", args);
  bool failed = false;

  std::printf(
      "%-12s %-9s %-45s %10s %10s %7s %9s %9s\n", "corpus", "family",
      "query", "visited", "full", "ratio", "pruned_s", "full_s");
  PrintRule(116);

  for (const CorpusQueries& workload : kWorkload) {
    const corpus::CorpusGenerator* generator =
        Unwrap(corpus::FindCorpus(workload.corpus), "corpus");
    if (!args.Selected(*generator)) continue;
    corpus::GenerateOptions gen;
    gen.target_nodes = args.TargetNodes(*generator);
    gen.seed = args.seed;
    const std::string xml = generator->Generate(gen);
    CompressOptions copts;
    copts.mode = LabelMode::kAllTags;
    const Instance base = Unwrap(CompressXml(xml, copts), "compress");
    const uint64_t summary_nodes =
        base.EnsurePathSummary().nodes.size();

    for (const PruneQuery& query : workload.queries) {
      const algebra::QueryPlan plan =
          Unwrap(algebra::CompileString(query.text), "compile");
      const RunResult pruned = RunOnce(base, plan, /*prune=*/true);
      const RunResult full = RunOnce(base, plan, /*prune=*/false);

      // Answer equality: exact selected tree-node sets (numbering
      // independent), identical split counts and result structure.
      if (pruned.tree_set != full.tree_set ||
          pruned.selected_tree != full.selected_tree ||
          pruned.stats.splits != full.stats.splits ||
          pruned.stats.vertices_after != full.stats.vertices_after ||
          pruned.stats.edges_after != full.stats.edges_after) {
        std::fprintf(stderr,
                     "FATAL %s %s: pruned run diverged from full run\n",
                     workload.corpus, query.text);
        failed = true;
      }

      const double ratio =
          pruned.stats.sweep_full == 0
              ? 0.0
              : static_cast<double>(pruned.stats.sweep_visited) /
                    static_cast<double>(pruned.stats.sweep_full);
      // The budget decision: a summary exists exactly where it is
      // smaller than the DAG.
      if ((summary_nodes > 0) != workload.within_budget) {
        std::fprintf(stderr,
                     "FATAL %s %s: summary_nodes = %llu, but the corpus "
                     "is expected %s budget\n",
                     workload.corpus, query.text,
                     static_cast<unsigned long long>(summary_nodes),
                     workload.within_budget ? "within" : "over");
        failed = true;
      }
      // The headline gate: where pruning runs, `//` recursion must skip
      // more than half of what unpruned sweeps would touch.
      if (workload.within_budget &&
          std::strcmp(query.family, "descent") == 0 && ratio >= 0.5) {
        std::fprintf(stderr,
                     "FATAL %s %s: pruned sweeps visited %.1f%% "
                     "of the full-sweep volume (gate: < 50%%)\n",
                     workload.corpus, query.text, 100.0 * ratio);
        failed = true;
      }

      std::printf("%-12s %-9s %-45s %10llu %10llu %6.1f%% %9.4f %9.4f\n",
                  workload.corpus, query.family, query.text,
                  static_cast<unsigned long long>(
                      pruned.stats.sweep_visited),
                  static_cast<unsigned long long>(pruned.stats.sweep_full),
                  100.0 * ratio, pruned.seconds, full.seconds);

      report.Row()
          .Set("corpus", workload.corpus)
          .Set("family", query.family)
          .Set("query", query.text)
          .Set("summary_nodes", summary_nodes)
          .Set("sweep_visited", pruned.stats.sweep_visited)
          .Set("sweep_full", pruned.stats.sweep_full)
          .Set("pruned_sweeps", pruned.stats.pruned_sweeps)
          .Set("skipped_sweeps", pruned.stats.skipped_sweeps)
          .Set("selected_tree", pruned.selected_tree)
          .Set("splits", pruned.stats.splits)
          .Set("pruned_s", pruned.seconds)
          .Set("full_s", full.seconds);
    }
  }
  report.Finish();
  return failed ? 1 : 0;
}

}  // namespace xcq::bench

int main(int argc, char** argv) { return xcq::bench::Main(argc, argv); }
