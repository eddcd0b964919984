#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"
#include "xcq/util/string_util.h"

namespace xcq {
namespace {

/// Grammar-based differential fuzzing: random Core XPath queries over
/// random documents, DAG engine vs tree baseline, exact node sets. This
/// is the suite's widest net — each case exercises parser, compiler,
/// compressor, all axis operators (with splitting), decompression, and
/// the baseline together.
class QueryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryFuzzTest, RandomQueriesAgreeWithBaseline) {
  Rng rng(GetParam() * 7919 + 13);
  const std::string xml =
      testing::RandomXml(GetParam() * 31 + 5, 180, 3);
  for (int i = 0; i < 12; ++i) {
    const std::string query = testing::RandomQueryText(rng, 3);
    SCOPED_TRACE("query: " + query);
    testing::RunDifferential(xml, query);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest,
                         ::testing::Range<uint64_t>(0, 25));

/// Structured-random documents with heavy sharing (wide repetition) make
/// multiplicity handling and splitting work hardest.
class RepetitiveDocFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RepetitiveDocFuzzTest, RandomQueriesOnRegularDocs) {
  Rng rng(GetParam() * 104729 + 7);
  // Rows of identical shape with occasional variation — high sharing,
  // large multiplicities.
  std::string xml = "<t0>";
  const uint64_t rows = 60;
  for (uint64_t r = 0; r < rows; ++r) {
    xml += "<t1>";
    const uint64_t repeat = rng.Uniform(1, 6);
    for (uint64_t k = 0; k < repeat; ++k) {
      xml += rng.Chance(0.85) ? "<t2>growth</t2>" : "<t2>market</t2>";
    }
    if (rng.Chance(0.3)) xml += "<t0/>";
    xml += "</t1>";
  }
  xml += "</t0>";
  for (int i = 0; i < 10; ++i) {
    const std::string query = testing::RandomQueryText(rng, 3);
    SCOPED_TRACE("query: " + query);
    testing::RunDifferential(xml, query);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepetitiveDocFuzzTest,
                         ::testing::Range<uint64_t>(0, 15));

/// Serialization fuzz: random instances (from random docs, after random
/// splitting queries and an in-place re-minimize, whose merged-away
/// vertices stay behind unreachable) must round-trip to an equivalent
/// instance without that garbage, and re-encoding the decoded instance
/// must reproduce the bytes.
class IoFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IoFuzzTest, EvaluatedInstancesRoundTrip) {
  Rng rng(GetParam() + 1000);
  const std::string xml = testing::RandomXml(GetParam() + 99, 150, 3);
  CompressOptions options;
  options.mode = LabelMode::kAllTags;
  XCQ_ASSERT_OK_AND_ASSIGN(Instance inst, CompressXml(xml, options));
  std::string queries;
  for (int i = 0; i < 3; ++i) {
    const std::string query = testing::RandomQueryText(rng, 3);
    queries += query + "; ";
    auto plan = algebra::CompileString(query);
    ASSERT_TRUE(plan.ok()) << query;
    auto result = engine::Evaluate(&inst, *plan, {}, nullptr);
    ASSERT_TRUE(result.ok()) << query;
  }
  SCOPED_TRACE(queries);
  XCQ_ASSERT_OK(MinimizeInPlace(&inst));

  const std::string bytes = SerializeInstanceChecksummed(inst);
  XCQ_ASSERT_OK_AND_ASSIGN(Instance reloaded,
                           DeserializeInstance(bytes));
  EXPECT_EQ(reloaded.vertex_count(), inst.ReachableCount());
  EXPECT_EQ(reloaded.traversal_builds(), 0u);
  XCQ_ASSERT_OK_AND_ASSIGN(const bool equivalent,
                           AreEquivalent(inst, reloaded));
  EXPECT_TRUE(equivalent);
  EXPECT_EQ(SerializeInstanceChecksummed(reloaded), bytes);  // canonical
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoFuzzTest,
                         ::testing::Range<uint64_t>(0, 10));

/// The parser must never crash or hang on mutated query strings; it may
/// accept or reject, but must return cleanly.
class QueryMutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryMutationTest, MutatedQueriesFailCleanly) {
  Rng rng(GetParam() * 37 + 3);
  std::string query = testing::RandomQueryText(rng, 3);
  for (int i = 0; i < 20; ++i) {
    std::string mutated = query;
    const size_t pos = rng.Uniform(0, mutated.size() - 1);
    switch (rng.Uniform(0, 2)) {
      case 0:
        mutated[pos] = static_cast<char>(rng.Uniform(32, 126));
        break;
      case 1:
        mutated.erase(pos, 1);
        break;
      default:
        mutated.insert(pos, 1,
                       static_cast<char>(rng.Uniform(32, 126)));
        break;
    }
    const auto parsed = xpath::ParseQuery(mutated);
    if (parsed.ok()) {
      // Accepted mutants must also compile.
      EXPECT_TRUE(algebra::Compile(*parsed).ok()) << mutated;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryMutationTest,
                         ::testing::Range<uint64_t>(0, 10));

/// The XML parser must fail cleanly (never crash) on mutated documents.
class XmlMutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlMutationTest, MutatedDocumentsFailCleanly) {
  Rng rng(GetParam() * 53 + 11);
  std::string xml = testing::RandomXml(GetParam(), 60, 3);
  for (int i = 0; i < 20; ++i) {
    std::string mutated = xml;
    const size_t pos = rng.Uniform(0, mutated.size() - 1);
    switch (rng.Uniform(0, 2)) {
      case 0:
        mutated[pos] = static_cast<char>(rng.Uniform(1, 255));
        break;
      case 1:
        mutated.erase(pos, rng.Uniform(1, 5));
        break;
      default:
        mutated.insert(pos, "<![&");
        break;
    }
    CompressOptions options;
    options.mode = LabelMode::kAllTags;
    const auto result = CompressXml(mutated, options);
    if (result.ok()) {
      // Accepted mutants must still produce valid minimal instances.
      XCQ_EXPECT_OK(result.Value().Validate());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlMutationTest,
                         ::testing::Range<uint64_t>(0, 10));

/// Differential fuzzing on mutated corpus documents: random and corpus
/// queries, DAG engine vs tree baseline, exact node sets. Mutants keep
/// the corpus's shape (and so its sharing) while breaking its
/// regularity. A divergence dumps a self-contained repro (seed, query,
/// document) to a file named in the failure.
class MutatedCorpusFuzzTest : public ::testing::TestWithParam<uint64_t> {};

void RunMutatedDifferential(const std::string& xml, const std::string& query,
                            uint64_t seed) {
  const auto parsed = xpath::ParseQuery(query);
  ASSERT_TRUE(parsed.ok()) << query;
  const auto plan = algebra::Compile(*parsed);
  ASSERT_TRUE(plan.ok()) << query;
  const xpath::QueryRequirements reqs = xpath::CollectRequirements(*parsed);

  CompressOptions copts;
  copts.mode = LabelMode::kAllTags;
  copts.patterns = reqs.patterns;
  auto instance = CompressXml(xml, copts);
  const auto labeled = TreeBuilder::Build(xml, reqs.patterns);
  ASSERT_EQ(instance.ok(), labeled.ok()) << query;
  if (!instance.ok()) return;  // the mutation broke well-formedness

  engine::EvalStats stats;
  const auto result = engine::Evaluate(&*instance, *plan, {}, &stats);
  ASSERT_TRUE(result.ok()) << result.status() << " query: " << query;
  const auto expected = baseline::Evaluate(*labeled, *plan);
  ASSERT_TRUE(expected.ok()) << expected.status();
  // Both expansions are in document order, so node ids line up.
  const auto tree = Decompress(*instance, {});
  ASSERT_TRUE(tree.ok()) << tree.status();
  const Status valid = instance->Validate();
  const bool diverged =
      !valid.ok() || tree->tree.node_count() != labeled->tree.node_count() ||
      SelectedTreeNodeCount(*instance, *result) != expected->Count() ||
      tree->RelationSet(engine::kResultRelation) != *expected;
  if (!diverged) return;

  // Dump everything needed to replay the case by hand.
  const std::string path = ::testing::TempDir() +
                           "xcq_mutated_divergence_" + std::to_string(seed) +
                           ".txt";
  std::ofstream dump(path);
  dump << "seed: " << seed << "\n"
       << "query: " << query << "\n"
       << "dag: splits=" << stats.splits
       << " vertices=" << stats.vertices_after
       << " edges=" << stats.edges_after
       << " tree=" << SelectedTreeNodeCount(*instance, *result)
       << " validate=" << valid.ToString() << "\n"
       << "baseline: tree=" << expected->Count() << "\n"
       << "document:\n"
       << xml << "\n";
  dump.close();
  ADD_FAILURE() << "DAG evaluation diverged from the tree baseline; repro "
                   "(document, query, seed) dumped to "
                << path;
}

TEST_P(MutatedCorpusFuzzTest, MatchesBaselineOnMutatedCorpora) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 6151 + 17);
  const std::vector<const corpus::CorpusGenerator*> corpora =
      corpus::AllCorpora();
  const corpus::CorpusGenerator* generator =
      corpora[seed % corpora.size()];
  corpus::GenerateOptions gen;
  gen.target_nodes = 400;
  gen.seed = seed * 13 + 1;
  const std::string base = generator->Generate(gen);

  // Corpus-query pool plus random grammar queries.
  std::vector<std::string> pool = {"//*", "//*/following-sibling::*"};
  const Result<corpus::QuerySet> set = corpus::QueriesFor(generator->name());
  if (set.ok()) {
    for (const std::string_view q : set->queries) pool.emplace_back(q);
  }

  for (int round = 0; round < 6; ++round) {
    // Mutate the document: byte flips / deletions / duplicated spans.
    // Mutants that no longer parse are skipped inside the runner.
    std::string xml = base;
    const int mutations = static_cast<int>(rng.Uniform(0, 3));
    for (int m = 0; m < mutations && !xml.empty(); ++m) {
      const size_t pos = rng.Uniform(0, xml.size() - 1);
      switch (rng.Uniform(0, 2)) {
        case 0:
          xml[pos] = static_cast<char>(rng.Uniform(32, 126));
          break;
        case 1:
          xml.erase(pos, rng.Uniform(1, 8));
          break;
        default: {
          const size_t len =
              std::min<size_t>(rng.Uniform(1, 40), xml.size() - pos);
          xml.insert(pos, xml.substr(pos, len));
          break;
        }
      }
    }
    const std::string query = rng.Chance(0.5)
                                  ? rng.Pick(pool)
                                  : testing::RandomQueryText(rng, 3);
    SCOPED_TRACE("query: " + query);
    // Unused draw: it keeps each seed's stream of mutants and queries
    // stable.
    (void)rng.Chance(0.5);
    RunMutatedDifferential(xml, query, seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutatedCorpusFuzzTest,
                         ::testing::Range<uint64_t>(0, 16));

/// Query sequences through one serving session: every query runs on the
/// instance the earlier ones split (and, with minimize, re-minimized),
/// and after each one the session's answer must equal the tree
/// baseline's and the instance must validate.
void ExpectSessionMatchesBaseline(const std::string& xml,
                                  const std::vector<std::string>& queries,
                                  bool minimize) {
  SessionOptions options;
  options.minimize_after_query = minimize;
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::Open(xml, options));
  std::vector<std::string> patterns;
  for (const std::string& query : queries) {
    XCQ_ASSERT_OK_AND_ASSIGN(const xpath::Query parsed,
                             xpath::ParseQuery(query));
    for (std::string& p : xpath::CollectRequirements(parsed).patterns) {
      patterns.push_back(std::move(p));
    }
  }
  XCQ_ASSERT_OK_AND_ASSIGN(const LabeledTree labeled,
                           TreeBuilder::Build(xml, patterns));

  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome outcome, session.Run(query));
    XCQ_ASSERT_OK_AND_ASSIGN(const algebra::QueryPlan plan,
                             algebra::CompileString(query));
    XCQ_ASSERT_OK_AND_ASSIGN(const DynamicBitset expected,
                             baseline::Evaluate(labeled, plan));
    EXPECT_EQ(outcome.selected_tree_nodes, expected.Count());
    XCQ_ASSERT_OK_AND_ASSIGN(const DecompressedTree tree,
                             Decompress(session.instance(), {}));
    ASSERT_EQ(tree.tree.node_count(), labeled.tree.node_count());
    EXPECT_TRUE(tree.RelationSet(engine::kResultRelation) == expected);
    XCQ_ASSERT_OK(session.instance().Validate());
  }
}

/// The generic mix: recursive descent, splitting sibling walks, and an
/// upward tail, plus the corpus's Appendix-A queries.
std::vector<std::string> SequencePool(std::string_view corpus_name) {
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

TEST(SessionSequenceTest, RandomizedSequencesOverEveryCorpus) {
  size_t corpus_index = 0;
  for (const corpus::CorpusGenerator* generator : corpus::AllCorpora()) {
    SCOPED_TRACE(std::string(generator->name()));
    corpus::GenerateOptions gen;
    gen.target_nodes = 900;
    gen.seed = 31 + corpus_index;
    const std::string xml = generator->Generate(gen);

    const std::vector<std::string> pool = SequencePool(generator->name());
    Rng rng(4321 + corpus_index);
    std::vector<std::string> sequence;
    for (int i = 0; i < 6; ++i) sequence.push_back(rng.Pick(pool));
    ExpectSessionMatchesBaseline(xml, sequence, /*minimize=*/false);
    ExpectSessionMatchesBaseline(xml, sequence, /*minimize=*/true);
    ++corpus_index;
  }
}

TEST(SessionSequenceTest, EightQuerySequencesOverEveryCorpus) {
  // Longer per-corpus sequences on a second set of documents.
  size_t corpus_index = 0;
  for (const corpus::CorpusGenerator* generator : corpus::AllCorpora()) {
    SCOPED_TRACE(std::string(generator->name()));
    corpus::GenerateOptions gen;
    gen.target_nodes = 600;
    gen.seed = 131 + corpus_index;
    const std::string xml = generator->Generate(gen);

    const std::vector<std::string> pool = SequencePool(generator->name());
    Rng rng(99 + corpus_index);
    std::vector<std::string> sequence;
    for (int i = 0; i < 8; ++i) sequence.push_back(rng.Pick(pool));
    ExpectSessionMatchesBaseline(xml, sequence, /*minimize=*/false);
    ExpectSessionMatchesBaseline(xml, sequence, /*minimize=*/true);
    ++corpus_index;
  }
}

/// Protocol-frame fuzzing (ISSUE 8): random byte streams and mutated
/// valid requests against the line framer and the live epoll front end.
/// Neither may crash, hang, violate the framing bound, or leak a
/// connection slot. A violation dumps the offending stream to a named
/// file, like the mutated-corpus fuzzer above.

/// A random protocol-ish byte stream: valid requests, mutated requests,
/// binary garbage (NULs, high bytes), overlong runs, and every
/// terminator flavour (`\n`, `\r\n`, bare `\r`, none).
std::string RandomProtocolStream(Rng& rng) {
  static const char* kRequests[] = {
      "QUERY doc //t0",        "QUERY doc //t0[t1]",
      "BATCH doc 2",           "//t0",
      "//t1/t2",               "STATS",
      "METRICS",               "EVICT doc",
      "QUIT",                  "QUERY doc",
      "BATCH doc 9999999999",  "BATCH doc -1",
      "LOAD",                  "NOPE nope nope",
      "query doc //t0",        " QUERY doc //t0",
  };
  std::string stream;
  const uint64_t parts = rng.Uniform(1, 30);
  for (uint64_t p = 0; p < parts; ++p) {
    switch (rng.Uniform(0, 3)) {
      case 0:  // a pool request, verbatim
        stream += kRequests[rng.Uniform(0, std::size(kRequests) - 1)];
        break;
      case 1: {  // a pool request, mutated
        std::string mutated =
            kRequests[rng.Uniform(0, std::size(kRequests) - 1)];
        const uint64_t edits = rng.Uniform(1, 4);
        for (uint64_t e = 0; e < edits && !mutated.empty(); ++e) {
          const size_t pos = rng.Uniform(0, mutated.size() - 1);
          switch (rng.Uniform(0, 2)) {
            case 0:
              mutated[pos] = static_cast<char>(rng.Uniform(0, 255));
              break;
            case 1:
              mutated.erase(pos, 1);
              break;
            default:
              mutated.insert(pos, 1, static_cast<char>(rng.Uniform(0, 255)));
              break;
          }
        }
        stream += mutated;
        break;
      }
      case 2: {  // binary garbage
        const uint64_t len = rng.Uniform(0, 200);
        for (uint64_t i = 0; i < len; ++i) {
          stream += static_cast<char>(rng.Uniform(0, 255));
        }
        break;
      }
      default:  // an overlong run, to trip the line-length bound
        stream += std::string(rng.Uniform(200, 2000), 'A');
        break;
    }
    switch (rng.Uniform(0, 3)) {
      case 0: stream += "\n"; break;
      case 1: stream += "\r\n"; break;
      case 2: stream += "\r"; break;
      default: break;  // no terminator: the next part glues on
    }
  }
  return stream;
}

std::string DumpStream(const std::string& stream, uint64_t seed,
                       const char* what) {
  const std::string path = ::testing::TempDir() + "xcq_protocol_fuzz_" +
                           what + "_" + std::to_string(seed) + ".bin";
  std::ofstream dump(path, std::ios::binary);
  dump.write(stream.data(), static_cast<std::streamsize>(stream.size()));
  return path;
}

/// LineFramer invariants on arbitrary byte streams fed in arbitrary
/// chunk sizes: no emitted line exceeds the bound, the buffer never
/// holds more than the bound across a kNeedMore, overflow is sticky and
/// empties the buffer, and every framed line parses without crashing.
class FrameFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrameFuzzTest, FramerInvariantsHoldOnRandomStreams) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 2654435761ull + 101);
  for (int round = 0; round < 8; ++round) {
    const std::string stream = RandomProtocolStream(rng);
    server::LineFramer framer(/*max_line_bytes=*/256);
    std::string violation;
    size_t offset = 0;
    while (offset < stream.size() && violation.empty()) {
      const size_t chunk = std::min<size_t>(
          rng.Uniform(1, 64), stream.size() - offset);
      framer.Append(std::string_view(stream).substr(offset, chunk));
      offset += chunk;
      std::string line;
      bool more = true;
      while (more && violation.empty()) {
        switch (framer.NextLine(&line)) {
          case server::LineFramer::Next::kLine:
            if (line.size() > framer.max_line_bytes()) {
              violation = "emitted a line longer than the bound";
            }
            server::ParseRequest(line).ok();  // must return cleanly
            break;
          case server::LineFramer::Next::kNeedMore:
            if (framer.buffered() > framer.max_line_bytes()) {
              violation = "kNeedMore with buffer beyond the bound";
            }
            more = false;
            break;
          case server::LineFramer::Next::kOverflow:
            if (!framer.overflowed() || framer.buffered() != 0) {
              violation = "overflow retained bytes or cleared the flag";
            }
            more = false;
            break;
        }
      }
    }
    if (violation.empty() && framer.overflowed()) {
      // Sticky: more input must neither revive the stream nor grow it.
      framer.Append("STATS\n");
      std::string line;
      if (framer.NextLine(&line) != server::LineFramer::Next::kOverflow ||
          framer.buffered() != 0) {
        violation = "overflow was not sticky";
      }
    }
    if (violation.empty()) {
      std::string residual;
      if (framer.TakeResidual(&residual) &&
          residual.size() > framer.max_line_bytes()) {
        violation = "residual longer than the bound";
      }
    }
    if (!violation.empty()) {
      ADD_FAILURE() << violation << "; stream dumped to "
                    << DumpStream(stream, seed, "framer");
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzzTest,
                         ::testing::Range<uint64_t>(0, 12));

/// Minimal blocking client for the socket fuzzer; sends are
/// best-effort (the server may rightfully close mid-stream).
class FuzzClient {
 public:
  explicit FuzzClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
    } else {
      timeval tv{};
      tv.tv_sec = 5;
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
  }

  ~FuzzClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  void SendBestEffort(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
  }

  /// Reads and discards up to `budget` bytes (EOF and timeouts stop it).
  void DrainSome(size_t budget) {
    char chunk[4096];
    while (budget > 0) {
      const ssize_t n = ::recv(fd_, chunk, std::min(sizeof(chunk), budget), 0);
      if (n <= 0) return;
      budget -= static_cast<size_t>(n);
    }
  }

  bool ReadLine(std::string* line) {
    line->clear();
    char byte;
    while (true) {
      const ssize_t n = ::recv(fd_, &byte, 1, 0);
      if (n <= 0) return false;
      if (byte == '\n') return true;
      *line += byte;
    }
  }

 private:
  int fd_ = -1;
};

/// The live epoll front end under fire: random streams over real
/// sockets, clients that vanish without reading, tight queue and
/// line-length limits. After every barrage the server must still answer
/// a well-formed client, and every connection slot must drain back
/// (nothing leaked) — the gauge is the leak detector.
class ProtocolSocketFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProtocolSocketFuzzTest, ServerSurvivesGarbageWithoutLeakingSlots) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 48271 + 7);

  server::ServerOptions options;
  options.port = 0;
  options.worker_threads = 2;
  // Tight limits so the fuzz traffic actually exercises overflow,
  // admission-control parking, and the slow-reader guard.
  options.max_line_bytes = 256;
  options.queue_depth = 4;
  options.max_inflight_per_connection = 4;
  options.write_high_watermark = 2048;
  server::TcpServer srv(options);
  XCQ_ASSERT_OK(srv.store().LoadXml("doc", testing::RandomXml(seed, 120, 3)));
  XCQ_ASSERT_OK(srv.Start());

  std::string last_stream;
  for (int round = 0; round < 10; ++round) {
    last_stream = RandomProtocolStream(rng);
    FuzzClient client(srv.port());
    ASSERT_TRUE(client.connected()) << "round " << round;
    client.SendBestEffort(last_stream);
    // Half the clients read a little, half vanish with replies pending.
    if (rng.Chance(0.5)) client.DrainSome(rng.Uniform(0, 4096));
  }

  // Liveness: a well-formed client still gets a well-formed answer.
  FuzzClient sane(srv.port());
  ASSERT_TRUE(sane.connected());
  sane.SendBestEffort("STATS\n");
  std::string line;
  if (!sane.ReadLine(&line) || line.rfind("OK ", 0) != 0) {
    ADD_FAILURE() << "server unresponsive after fuzz traffic (got '" << line
                  << "'); last stream dumped to "
                  << DumpStream(last_stream, seed, "socket");
    return;
  }

  // Slot-leak check: with every fuzz client closed, only the sanity
  // connection may remain.
  const auto* registry = srv.store().registry();
  bool drained = false;
  for (int i = 0; i < 1000 && !drained; ++i) {
    drained = registry->GaugeValue("xcq_server_connections",
                                   obs::LabelSet{}) <= 1.0;
    if (!drained) usleep(5000);
  }
  if (!drained) {
    ADD_FAILURE() << "connection slots leaked: gauge stuck at "
                  << registry->GaugeValue("xcq_server_connections",
                                          obs::LabelSet{})
                  << "; last stream dumped to "
                  << DumpStream(last_stream, seed, "socket");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolSocketFuzzTest,
                         ::testing::Range<uint64_t>(0, 8));

/// Whole-stack differential fuzzing: random request scripts through the
/// daemon's request path (`PipelinedHandler` → `QueryService` →
/// `DocumentStore` with a data dir) over one corpus document. Scripts
/// mix QUERY and BATCH with EVICT (the next request faults the document
/// back in from its spill), store restarts on the same data dir, and
/// `TIMEOUT 1` queries followed by the same query without a deadline;
/// each runs once with sessions re-minimizing after every query and
/// once without. Every `OK` answer's `tree=` count must equal the
/// uncompressed-tree baseline on the source document. A divergence
/// dumps a repro (seed, request script, document), like the pruned-sweep
/// fuzzer above.
class ServingDifferentialFuzzTest
    : public ::testing::TestWithParam<uint64_t> {};

/// The `tree=` count of one answer line; nullopt when it has none.
std::optional<uint64_t> TreeCount(const std::string& line) {
  const size_t at = line.find(" tree=");
  if (at == std::string::npos) return std::nullopt;
  return std::strtoull(line.c_str() + at + 6, nullptr, 10);
}

/// Tree nodes `text` selects on the uncompressed document.
Result<uint64_t> BaselineCount(const std::string& xml,
                               const std::string& text) {
  XCQ_ASSIGN_OR_RETURN(const xpath::Query query, xpath::ParseQuery(text));
  XCQ_ASSIGN_OR_RETURN(const algebra::QueryPlan plan, algebra::Compile(query));
  XCQ_ASSIGN_OR_RETURN(
      const LabeledTree labeled,
      TreeBuilder::Build(xml, CollectRequirements(query).patterns));
  XCQ_ASSIGN_OR_RETURN(const DynamicBitset selected,
                       baseline::Evaluate(labeled, plan));
  return static_cast<uint64_t>(selected.Count());
}

void RunServingDifferential(uint64_t seed, bool minimize) {
  // The same script for both minimize modes.
  Rng rng(seed * 7727 + 3);
  const std::vector<const corpus::CorpusGenerator*> corpora =
      corpus::AllCorpora();
  const corpus::CorpusGenerator* generator =
      corpora[seed % corpora.size()];
  corpus::GenerateOptions gen;
  gen.target_nodes = 500;
  gen.seed = seed * 17 + 3;
  const std::string xml = generator->Generate(gen);
  std::vector<std::string> pool = {"/*", "//*", "//*/following-sibling::*",
                                   "//*/preceding-sibling::*/parent::*"};
  const Result<corpus::QuerySet> set = corpus::QueriesFor(generator->name());
  if (set.ok()) {
    for (const std::string_view q : set->queries) pool.emplace_back(q);
  }

  std::string dir = ::testing::TempDir() + "xcq_serving_fuzz_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string xml_path = dir + "/doc.xml";
  XCQ_ASSERT_OK(xml::WriteStringToFile(xml_path, xml));
  server::StoreOptions store_options;
  store_options.data_dir = dir + "/data";
  store_options.session.minimize_after_query = minimize;
  std::unique_ptr<server::DocumentStore> store;
  std::unique_ptr<server::QueryService> service;
  const auto start = [&] {
    service.reset();  // joins the workers before their store goes
    store = std::make_unique<server::DocumentStore>(store_options);
    service = std::make_unique<server::QueryService>(
        store.get(), server::ServiceOptions{2});
  };
  start();

  std::vector<std::string> script;  // every line sent, restarts marked
  std::map<std::string, uint64_t> expected;
  std::string divergence;
  uint64_t checked = 0;
  // True once the document may have been faulted in from its spill
  // since the last LOAD: it then carries only the labels queried so
  // far, and a query needing another answers `ERR NotFound`.
  bool from_spill = false;

  const auto send = [&](const std::vector<std::string>& lines) {
    script.insert(script.end(), lines.begin(), lines.end());
    return testing::Converse(store.get(), service.get(), lines);
  };
  const auto fail = [&](const std::string& what) {
    if (divergence.empty()) divergence = what;
  };
  const auto load = [&] {
    const std::vector<std::string> reply = send({"LOAD doc " + xml_path});
    if (reply.size() != 1 || reply[0].rfind("OK loaded doc", 0) != 0) {
      fail("LOAD answered " + (reply.empty() ? "nothing" : reply[0]));
    }
    from_spill = false;
  };
  const auto check = [&](const std::string& query, const std::string& line) {
    auto [it, fresh] = expected.try_emplace(query, 0);
    if (fresh) {
      const Result<uint64_t> count = BaselineCount(xml, query);
      if (!count.ok()) {
        fail("baseline failed on " + query + ": " + count.status().ToString());
        return;
      }
      it->second = *count;
    }
    const std::optional<uint64_t> tree = TreeCount(line);
    if (!tree.has_value() || *tree != it->second) {
      fail(StrFormat("%s answered '%s', baseline selects %llu",
                     query.c_str(), line.c_str(),
                     static_cast<unsigned long long>(it->second)));
    }
    ++checked;
  };
  // One QUERY (a single query, `timeout` prefixed) or BATCH; checks
  // every answer and returns the ERR line of a failed request, "" else.
  const auto ask = [&](const std::vector<std::string>& queries,
                       const std::string& timeout) {
    std::vector<std::string> lines;
    if (queries.size() == 1) {
      lines.push_back("QUERY doc " + timeout + queries.front());
    } else {
      lines.push_back(StrFormat("BATCH doc %zu", queries.size()));
      lines.insert(lines.end(), queries.begin(), queries.end());
    }
    const std::vector<std::string> reply = send(lines);
    if (reply.empty()) {
      fail("no reply to " + lines.front());
      return std::string();
    }
    if (reply[0].rfind("ERR ", 0) == 0) return reply[0];
    if (queries.size() == 1) {
      check(queries.front(), reply[0]);
    } else if (reply.size() != queries.size() + 1 ||
               reply[0] != StrFormat("OK %zu", queries.size())) {
      fail("malformed BATCH reply starting '" + reply[0] + "'");
    } else {
      for (size_t i = 0; i < queries.size(); ++i) {
        check(queries[i], reply[i + 1]);
      }
    }
    return std::string();
  };
  const auto spill_miss = [&](const std::string& err) {
    return from_spill && err.rfind("ERR NotFound", 0) == 0;
  };
  // A request that must succeed; a spill miss re-LOADs and retries.
  const auto ask_ok = [&](const std::vector<std::string>& queries) {
    std::string err = ask(queries, "");
    if (spill_miss(err)) {
      load();
      err = ask(queries, "");
    }
    if (!err.empty()) fail("unexpected " + err);
  };

  load();
  for (int step = 0; step < 16 && divergence.empty(); ++step) {
    switch (rng.Uniform(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3:
        ask_ok({rng.Pick(pool)});
        break;
      case 4:
      case 5: {
        std::vector<std::string> batch;
        const uint64_t size = rng.Uniform(2, 4);
        for (uint64_t i = 0; i < size; ++i) batch.push_back(rng.Pick(pool));
        ask_ok(batch);
        break;
      }
      case 6: {
        // A document without a spill yet (never queried) is dropped
        // outright; the next request then misses and re-LOADs.
        const std::vector<std::string> reply = send({"EVICT doc"});
        if (reply.size() != 1 || (reply[0] != "OK evicted doc" &&
                                  reply[0].rfind("ERR NotFound", 0) != 0)) {
          fail("EVICT answered " + (reply.empty() ? "nothing" : reply[0]));
        }
        from_spill = true;
        break;
      }
      case 7:
        script.push_back("# restart the store on the same data dir");
        start();
        from_spill = true;
        break;
      default: {
        const std::string query = rng.Pick(pool);
        const std::string err = ask({query}, "TIMEOUT 1 ");
        if (!err.empty() && !spill_miss(err) &&
            err.rfind("ERR DeadlineExceeded", 0) != 0) {
          fail("unexpected " + err + " under TIMEOUT 1");
        }
        ask_ok({query});
        break;
      }
    }
  }
  service.reset();
  store.reset();
  std::filesystem::remove_all(dir);

  if (!divergence.empty()) {
    const std::string path = ::testing::TempDir() +
                             "xcq_serving_divergence_" +
                             std::to_string(seed) +
                             (minimize ? "_minimize" : "") + ".txt";
    std::ofstream dump(path);
    dump << "seed: " << seed << "\n"
         << "minimize_after_query: " << (minimize ? "on" : "off") << "\n"
         << "corpus: " << generator->name() << "\n"
         << "divergence: " << divergence << "\n"
         << "script:\n";
    for (const std::string& line : script) dump << line << "\n";
    dump << "document:\n" << xml << "\n";
    dump.close();
    ADD_FAILURE() << "served answers diverged from the tree baseline ("
                  << divergence << "); repro (seed, script, document) "
                  << "dumped to " << path;
  }
  EXPECT_GT(checked, 0u) << "no answer was checked";
}

TEST_P(ServingDifferentialFuzzTest, ServedAnswersMatchTreeBaseline) {
  RunServingDifferential(GetParam(), /*minimize=*/false);
  RunServingDifferential(GetParam(), /*minimize=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingDifferentialFuzzTest,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace xcq
