// bench_hotpath — the steady-state serving hot path: short queries over
// a warmed, resident compressed instance (the regime a query daemon
// lives in once a document is cached).
//
// What it measures and, more importantly, what it *counts*: after the
// warmup drives the instance to its split fixpoint, a steady-state
// QUERY / BATCH mix must be structurally free of per-query overhead —
//   * zero traversal-cache rebuilds (sweep plans, reachability and
//     path counts are all cache reads; nothing mutates the DAG),
//   * zero schema tombstones (per-op temporaries come from the
//     resident scratch pool, not from named relations),
//   * zero relation-column allocations (the pool serves every checkout
//     from resident storage),
//   * every BATCH served with shared sweeps (one traversal per axis
//     group instead of one per query).
// The bench exits non-zero if any of those counters moves — they are
// the acceptance gates of the traversal-cache / relation-pool /
// shared-sweep work, and the baseline JSON pins them exactly (zero is
// compared as a structural count by bench/compare_bench.py, never
// time-thresholded).
//
// Columns: corpus, phase (query|batch), rounds, queries evaluated,
// plan (traversal) rebuilds, tombstones added, relation allocations,
// shared batches / fallbacks, evaluation seconds, queries/second.

#include "bench_util.h"

namespace xcq::bench {
namespace {

struct PhaseResult {
  std::string phase;
  uint64_t rounds = 0;
  uint64_t queries = 0;
  uint64_t plan_builds = 0;       // traversal-cache rebuilds in phase
  uint64_t tombstones = 0;        // schema tombstones added in phase
  uint64_t relation_allocs = 0;   // scratch-column allocations in phase
  uint64_t shared_batches = 0;    // batches served with shared sweeps
  uint64_t shared_fallbacks = 0;  // batches that fell back per-query
  double eval_s = 0.0;
};

/// Counter snapshot around a phase.
struct Counters {
  uint64_t plan_builds = 0;
  uint64_t tombstones = 0;
  uint64_t relation_allocs = 0;
  uint64_t shared_batches = 0;
  uint64_t shared_fallbacks = 0;

  static Counters Of(const QuerySession& session) {
    Counters c;
    c.plan_builds = session.instance().traversal_builds();
    c.tombstones = session.instance().tombstones_added();
    c.relation_allocs = session.instance().scratch_stats().allocations;
    c.shared_batches = session.shared_batch_count();
    c.shared_fallbacks = session.shared_batch_fallback_count();
    return c;
  }
};

/// The short-query serving mix: the corpus' tree-pattern and path
/// queries (Appendix A Q1/Q2), one descendant step, and the sibling
/// query (Q5) so every kernel family sits on the measured path.
std::vector<std::string> ServingMix(std::string_view corpus_name) {
  std::vector<std::string> mix;
  const Result<corpus::QuerySet> set = corpus::QueriesFor(corpus_name);
  if (set.ok()) {
    mix.emplace_back(set->queries[0]);  // Q1: tree pattern, upward-only
    mix.emplace_back(set->queries[1]);  // Q2: path to its endpoint
    mix.emplace_back(set->queries[4]);  // Q5: sibling / preceding axes
  }
  mix.emplace_back("/*");
  mix.emplace_back("//*");
  return mix;
}

/// Drives the mix until one full pass performs no splits (the fixpoint
/// every later pass stays at), then one settle pass so every traversal
/// cache section (order, path counts) and the scratch pool are
/// populated. Dies if the fixpoint is not reached — that would break
/// the steady-state premise of everything measured after.
void Warmup(QuerySession* session, const std::vector<std::string>& mix) {
  bool stable = false;
  for (int round = 0; round < 8 && !stable; ++round) {
    uint64_t splits = 0;
    for (const std::string& query : mix) {
      const QueryOutcome outcome =
          Unwrap(session->Run(query), query.c_str());
      splits += outcome.stats.splits;
    }
    stable = splits == 0;
  }
  if (!stable) {
    std::fprintf(stderr, "FATAL warmup did not reach a split fixpoint\n");
    std::exit(1);
  }
  for (const std::string& query : mix) {
    Unwrap(session->Run(query), query.c_str());
  }
  Unwrap(session->RunBatch(mix), "warmup batch");
}

PhaseResult RunQueryPhase(QuerySession* session,
                          const std::vector<std::string>& mix,
                          uint64_t rounds) {
  PhaseResult result;
  result.phase = "query";
  result.rounds = rounds;
  const Counters before = Counters::Of(*session);
  Timer timer;
  for (uint64_t r = 0; r < rounds; ++r) {
    for (const std::string& query : mix) {
      Unwrap(session->Run(query), query.c_str());
      ++result.queries;
    }
  }
  result.eval_s = timer.Seconds();
  const Counters after = Counters::Of(*session);
  result.plan_builds = after.plan_builds - before.plan_builds;
  result.tombstones = after.tombstones - before.tombstones;
  result.relation_allocs = after.relation_allocs - before.relation_allocs;
  return result;
}

PhaseResult RunBatchPhase(QuerySession* session,
                          const std::vector<std::string>& mix,
                          uint64_t rounds) {
  PhaseResult result;
  result.phase = "batch";
  result.rounds = rounds;
  const Counters before = Counters::Of(*session);
  Timer timer;
  for (uint64_t r = 0; r < rounds; ++r) {
    const std::vector<QueryOutcome> outcomes =
        Unwrap(session->RunBatch(mix), "batch");
    result.queries += outcomes.size();
  }
  result.eval_s = timer.Seconds();
  const Counters after = Counters::Of(*session);
  result.plan_builds = after.plan_builds - before.plan_builds;
  result.tombstones = after.tombstones - before.tombstones;
  result.relation_allocs = after.relation_allocs - before.relation_allocs;
  result.shared_batches = after.shared_batches - before.shared_batches;
  result.shared_fallbacks =
      after.shared_fallbacks - before.shared_fallbacks;
  return result;
}

int CheckSteadyState(const std::string& corpus, const PhaseResult& r,
                     uint64_t expect_shared) {
  int failures = 0;
  const auto fail = [&](const char* what, uint64_t got, uint64_t want) {
    if (got == want) return;
    std::fprintf(stderr,
                 "FAIL %s/%s: %s = %llu (want %llu) — the hot path "
                 "regressed structurally\n",
                 corpus.c_str(), r.phase.c_str(), what,
                 static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    ++failures;
  };
  fail("plan_builds", r.plan_builds, 0);
  fail("tombstones", r.tombstones, 0);
  fail("relation_allocs", r.relation_allocs, 0);
  fail("shared_batches", r.shared_batches, expect_shared);
  fail("shared_fallbacks", r.shared_fallbacks, 0);
  return failures;
}

}  // namespace
}  // namespace xcq::bench

int main(int argc, char** argv) {
  using namespace xcq;
  using namespace xcq::bench;

  const BenchArgs args = BenchArgs::Parse(argc, argv);
  BenchReport report("hotpath", args);
  constexpr uint64_t kRounds = 20;
  int failures = 0;

  std::printf("bench_hotpath — steady-state serving mix "
              "(%llu rounds per phase)\n",
              static_cast<unsigned long long>(kRounds));
  std::printf("%-12s %-6s %8s %8s %12s %11s %15s %8s %10s %12s\n",
              "corpus", "phase", "rounds", "queries", "plan_builds",
              "tombstones", "relation_allocs", "shared", "eval_s",
              "queries/s");
  PrintRule(110);

  for (const char* name : {"Shakespeare", "SwissProt", "TreeBank"}) {
    if (!args.corpus.empty() && args.corpus != name) continue;
    const corpus::CorpusGenerator* generator =
        Unwrap(corpus::FindCorpus(name), name);
    corpus::GenerateOptions gen;
    gen.target_nodes = args.TargetNodes(*generator);
    gen.seed = args.seed;
    const std::string xml = generator->Generate(gen);
    const std::vector<std::string> mix = ServingMix(name);

    // The daemon's serving defaults: one resident instance, reclaim
    // off (a periodic compaction, not per-query work, in production).
    SessionOptions options;
    QuerySession session =
        Unwrap(QuerySession::Open(xml, options), "QuerySession::Open");
    Warmup(&session, mix);

    for (const PhaseResult& r :
         {RunQueryPhase(&session, mix, kRounds),
          RunBatchPhase(&session, mix, kRounds)}) {
      const uint64_t expect_shared = r.phase == "batch" ? r.rounds : 0;
      failures += CheckSteadyState(name, r, expect_shared);
      const double qps =
          r.eval_s > 0 ? static_cast<double>(r.queries) / r.eval_s : 0.0;
      std::printf("%-12s %-6s %8llu %8llu %12llu %11llu %15llu %8llu "
                  "%10.4f %12.0f\n",
                  name, r.phase.c_str(),
                  static_cast<unsigned long long>(r.rounds),
                  static_cast<unsigned long long>(r.queries),
                  static_cast<unsigned long long>(r.plan_builds),
                  static_cast<unsigned long long>(r.tombstones),
                  static_cast<unsigned long long>(r.relation_allocs),
                  static_cast<unsigned long long>(r.shared_batches),
                  r.eval_s, qps);
      report.Row()
          .Set("corpus", name)
          .Set("phase", r.phase)
          .Set("rounds", r.rounds)
          .Set("queries", r.queries)
          .Set("plan_builds", r.plan_builds)
          .Set("tombstones", r.tombstones)
          .Set("relation_allocs", r.relation_allocs)
          .Set("shared_batches", r.shared_batches)
          .Set("shared_fallbacks", r.shared_fallbacks)
          .Set("eval_s", r.eval_s);
    }
  }

  report.Finish();
  if (failures != 0) {
    std::fprintf(stderr, "bench_hotpath: %d structural check(s) failed\n",
                 failures);
    return 1;
  }
  return 0;
}
