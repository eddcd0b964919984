// bench_spill — what a durable spill costs to read back and to write.
//
// A warm document of xcq_serverd lives on disk as one `.xcqi` spill
// (docs/SERVER.md §Persistence). Every fault-in decodes it, hands the
// instance to `QuerySession::FromInstance` (which validates it) and
// then runs a sweep, which needs the traversal cache; every respill
// serializes the instance again. This bench times both directions on
// the spills the serving benchmark's workloads produce: SwissProt after
// its Q2 (the `fault_in` document), half-size TreeBank after Q1 and Q5,
// and Shakespeare after Q1, Q2 and Q5.
//
// Each input is the instance of a session that ran its queries until a
// pass split nothing, which is the instance a demotion spills. The
// bench dies loudly unless the decoded instance answers every query
// like the original and re-encodes to the same bytes.
//
// Columns: corpus, spill bytes, |V| and |E| of the spill,
// `traversal_builds` of the decoded instance after FromInstance and
// its first `EnsureTraversal` (structural, exact), and the median of
// kRepeats runs of `decode_ms` (DeserializeInstance + FromInstance +
// EnsureTraversal: the fault-in before the first sweep) and
// `serialize_ms` (SerializeInstanceChecksummed: the respill before its
// write). JSON rows land in BENCH_spill.json for bench/compare_bench.py.

#include <algorithm>

#include "bench_util.h"

namespace xcq::bench {
namespace {

constexpr int kRepeats = 41;

struct SpillInput {
  const char* corpus;
  double scale;  ///< Multiplier on the corpus' default size.
  std::vector<size_t> queries;  ///< Appendix-A query numbers, 1-based.
};

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Runs `queries` until a full pass splits nothing; returns the
/// answers of that last pass.
std::vector<uint64_t> RunToFixpoint(QuerySession* session,
                                    const std::vector<std::string>& queries) {
  for (;;) {
    std::vector<uint64_t> answers;
    uint64_t splits = 0;
    for (const std::string& query : queries) {
      const QueryOutcome outcome = Unwrap(session->Run(query), query.c_str());
      answers.push_back(outcome.selected_tree_nodes);
      splits += outcome.stats.splits;
    }
    if (splits == 0) return answers;
  }
}

}  // namespace
}  // namespace xcq::bench

int main(int argc, char** argv) {
  using namespace xcq;
  using namespace xcq::bench;

  const BenchArgs args = BenchArgs::Parse(argc, argv);
  BenchReport report("spill", args);
  const SpillInput kInputs[] = {
      {"SwissProt", 1.0, {2}},
      {"TreeBank", 0.5, {1, 5}},
      {"Shakespeare", 1.0, {1, 2, 5}},
  };

  std::printf("Spill decode (to the first sweep) and serialize, median of "
              "%d runs\n",
              kRepeats);
  std::printf("%-12s %12s %9s %10s %16s %10s %13s\n", "corpus",
              "spill_bytes", "|V|", "|E|", "traversal_builds", "decode_ms",
              "serialize_ms");
  PrintRule(88);

  for (const SpillInput& input : kInputs) {
    const corpus::CorpusGenerator* generator =
        Unwrap(corpus::FindCorpus(input.corpus), "FindCorpus");
    if (!args.Selected(*generator)) continue;
    corpus::GenerateOptions gen;
    gen.target_nodes = static_cast<uint64_t>(
        static_cast<double>(args.TargetNodes(*generator)) * input.scale);
    gen.seed = args.seed;
    const corpus::QuerySet set =
        Unwrap(corpus::QueriesFor(input.corpus), "QueriesFor");
    std::vector<std::string> queries;
    for (const size_t q : input.queries) queries.emplace_back(set.queries[q - 1]);

    QuerySession session = Unwrap(
        QuerySession::Open(generator->Generate(gen)), "QuerySession::Open");
    const std::vector<uint64_t> want = RunToFixpoint(&session, queries);
    const std::string bytes = SerializeInstanceChecksummed(session.instance());

    std::vector<double> decode_ms;
    std::vector<double> serialize_ms;
    uint64_t traversal_builds = 0;
    uint64_t vertices = 0;
    uint64_t edges = 0;
    for (int i = 0; i < kRepeats; ++i) {
      Timer decode;
      Instance decoded = Unwrap(DeserializeInstance(bytes), "decode");
      QuerySession loaded = Unwrap(
          QuerySession::FromInstance(std::move(decoded)), "FromInstance");
      loaded.instance().EnsureTraversal();
      decode_ms.push_back(decode.Seconds() * 1e3);

      Timer serialize;
      const std::string again =
          SerializeInstanceChecksummed(loaded.instance());
      serialize_ms.push_back(serialize.Seconds() * 1e3);
      if (i > 0) continue;

      // The first run also checks the spill: same bytes, same answers.
      traversal_builds = loaded.instance().traversal_builds();
      vertices = loaded.instance().vertex_count();
      edges = loaded.instance().rle_edge_count();
      if (again != bytes) {
        std::fprintf(stderr, "FATAL %s: re-encoding changed the spill\n",
                     input.corpus);
        return 1;
      }
      for (size_t q = 0; q < queries.size(); ++q) {
        const QueryOutcome got =
            Unwrap(loaded.Run(queries[q]), queries[q].c_str());
        if (got.selected_tree_nodes != want[q]) {
          std::fprintf(stderr,
                       "FATAL %s %s: decoded spill answers %llu, the "
                       "original %llu\n",
                       input.corpus, queries[q].c_str(),
                       static_cast<unsigned long long>(got.selected_tree_nodes),
                       static_cast<unsigned long long>(want[q]));
          return 1;
        }
      }
    }

    const double decode = Median(decode_ms);
    const double serialize = Median(serialize_ms);
    std::printf("%-12s %12zu %9llu %10llu %16llu %10.3f %13.3f\n",
                input.corpus, bytes.size(),
                static_cast<unsigned long long>(vertices),
                static_cast<unsigned long long>(edges),
                static_cast<unsigned long long>(traversal_builds), decode,
                serialize);
    report.Row()
        .Set("corpus", input.corpus)
        .Set("spill_bytes", bytes.size())
        .Set("vertices", vertices)
        .Set("edges", edges)
        .Set("traversal_builds", traversal_builds)
        .Set("decode_ms", decode)
        .Set("serialize_ms", serialize);
  }
  report.Finish();
  return 0;
}
