// Fault-injection coverage for the durable DocumentStore
// (docs/SERVER.md §Persistence).
//
// The contract under test, end to end:
//
//  * A hard stop (store destroyed with no flush — the destructor
//    deliberately skips FlushSpills) followed by a restart on the same
//    --data-dir answers every query bit-identically to the first
//    process, with ZERO re-parses of any source document.
//  * The data dir is the catalog: one `<escaped-name>.xcqi` per
//    document and nothing else. Restart cost is O(files): warm entries
//    are metadata until the first Acquire faults them in, and N
//    concurrent acquires of one warm document do exactly one spill read
//    (single-flight).
//  * Every corruption we can inject — torn spill, flipped CRC byte,
//    footer-less spill, missing file, zero-byte file, stray .tmp
//    artifacts — degrades that one document to a cold miss with a
//    canonical kCorruption, never a crash, never a wrong answer, and
//    never any effect on the other documents. Files the store cannot
//    read (an older data-dir layout, a spill of format 1) are counted
//    and left in place.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"

namespace xcq {
namespace {

using server::DocumentInfo;
using server::DocumentStore;
using server::StoreOptions;
using server::StoredDocument;

/// A fresh empty data dir under the gtest temp root.
std::string FreshDataDir(const std::string& tag) {
  std::string tmpl = ::testing::TempDir() + "/xcq_dur_" + tag + "_XXXXXX";
  const char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

StoreOptions DurableOptions(const std::string& data_dir) {
  StoreOptions options;
  options.data_dir = data_dir;
  return options;
}

std::string ReadRawFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteRawFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// The spill file of `name` inside `dir` (files are
/// `<escaped-name>.xcqi`; the names used with this helper are lower-case
/// letters and digits, which escape to themselves); "" when none exists.
std::string SpillPathFor(const std::string& dir, const std::string& name) {
  const std::string path = dir + "/" + name + ".xcqi";
  return FileExists(path) ? path : "";
}

/// Every file in `dir`, sorted.
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return files;
  while (const dirent* entry = ::readdir(d)) {
    const std::string file = entry->d_name;
    if (file != "." && file != "..") files.push_back(file);
  }
  ::closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

uint64_t QueryTreeCount(DocumentStore* store, const std::string& name,
                        const std::string& query) {
  auto doc = store->Acquire(name);
  EXPECT_TRUE(doc.ok()) << name << ": " << doc.status().ToString();
  if (!doc.ok()) return ~uint64_t{0};
  auto outcome = doc.Value()->Query(query);
  EXPECT_TRUE(outcome.ok()) << query << ": " << outcome.status().ToString();
  if (!outcome.ok()) return ~uint64_t{0};
  return outcome.Value().selected_tree_nodes;
}

DocumentInfo InfoFor(DocumentStore* store, const std::string& name) {
  for (const DocumentInfo& info : store->Stats()) {
    if (info.name == name) return info;
  }
  ADD_FAILURE() << "no STATS row for " << name;
  return {};
}

Instance CompressedBib(
    std::vector<std::string> tags = {"paper", "author", "title", "book"},
    std::vector<std::string> patterns = {"Vianu", "Codd"}) {
  CompressOptions copts;
  copts.mode = LabelMode::kSchema;
  copts.tags = std::move(tags);
  copts.patterns = std::move(patterns);
  auto instance = CompressXml(testing::BibExampleXml(), copts);
  EXPECT_TRUE(instance.ok()) << instance.status();
  return std::move(instance).Value();
}

/// The bib example with exactly `//paper/author`'s labels: an instance
/// LOAD spills it before any query, so its first query still splits.
Instance PaperAuthorBib() { return CompressedBib({"paper", "author"}, {}); }

double SpillWrites(DocumentStore* store) {
  return store->registry()
      ->GetCounter("xcq_store_spill_writes_total", {})
      ->Value();
}

/// Loads a three-document corpus (two XML docs, one pre-built .xcqi
/// instance), runs one query per document so every XML doc has spilled,
/// and returns name → (query, expected tree count).
std::map<std::string, std::pair<std::string, uint64_t>> SeedCorpus(
    DocumentStore* store) {
  XCQ_EXPECT_OK(store->LoadXml("alpha", testing::BibExampleXml()));
  XCQ_EXPECT_OK(store->LoadXml("beta", testing::AlternatingBinaryTreeXml(5)));
  XCQ_EXPECT_OK(store->LoadInstance("gamma", CompressedBib()));
  std::map<std::string, std::pair<std::string, uint64_t>> expected;
  expected["alpha"] = {"//paper/author", 0};
  expected["beta"] = {"//a/b", 0};
  expected["gamma"] = {"//book[author[\"Vianu\"]]", 0};
  for (auto& [name, qa] : expected) {
    qa.second = QueryTreeCount(store, name, qa.first);
    EXPECT_NE(qa.second, ~uint64_t{0});
  }
  return expected;
}

TEST(DurabilityTest, WarmRestartAnswersIdenticallyWithZeroReparses) {
  const std::string dir = FreshDataDir("restart");
  std::map<std::string, std::pair<std::string, uint64_t>> expected;
  {
    DocumentStore store(DurableOptions(dir));
    XCQ_ASSERT_OK(store.durability_status());
    expected = SeedCorpus(&store);
    // Hard stop: the destructor writes nothing.
  }
  // One spill per document is the whole catalog.
  EXPECT_EQ(ListDir(dir), (std::vector<std::string>{
                              "alpha.xcqi", "beta.xcqi", "gamma.xcqi"}));
  DocumentStore restarted(DurableOptions(dir));
  XCQ_ASSERT_OK(restarted.durability_status());
  EXPECT_EQ(restarted.recovery_stats().recovered, 3u);
  EXPECT_EQ(restarted.recovery_stats().errors, 0u);
  EXPECT_EQ(restarted.warm_count(), 3u);
  EXPECT_EQ(restarted.document_count(), 0u);  // lazy: metadata only
  for (const auto& [name, qa] : expected) {
    SCOPED_TRACE(name);
    EXPECT_EQ(restarted.Find(name), nullptr);  // still warm, not resident
    EXPECT_EQ(QueryTreeCount(&restarted, name, qa.first), qa.second);
    const DocumentInfo info = InfoFor(&restarted, name);
    EXPECT_TRUE(info.resident);
    EXPECT_TRUE(info.warm);
    EXPECT_EQ(info.source_parses, 0u);  // the whole point
    EXPECT_FALSE(info.has_source);
  }
  EXPECT_EQ(restarted.warm_count(), 0u);
  EXPECT_EQ(restarted.document_count(), 3u);
}

TEST(DurabilityTest, RestartPropertyLoopOverRandomCorpora) {
  // Property loop: random corpora, random mix of XML and instance
  // loads, every answer must survive a hard stop bit-identically.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    const std::string dir =
        FreshDataDir("prop" + std::to_string(seed));
    std::map<std::string, std::pair<std::string, uint64_t>> expected;
    {
      DocumentStore store(DurableOptions(dir));
      Rng rng(seed * 977);
      for (int d = 0; d < 4; ++d) {
        const std::string name = "doc" + std::to_string(d);
        const std::string xml =
            testing::RandomXml(seed * 131 + d, 200, 4);
        if (rng.Chance(0.5)) {
          XCQ_ASSERT_OK(store.LoadXml(name, xml));
        } else {
          CompressOptions copts;
          copts.mode = LabelMode::kSchema;
          copts.tags = {"t0", "t1", "t2", "t3"};
          XCQ_ASSERT_OK_AND_ASSIGN(Instance instance,
                                   CompressXml(xml, copts));
          XCQ_ASSERT_OK(store.LoadInstance(name, std::move(instance)));
        }
        const std::string query =
            "//t" + std::to_string(rng.Uniform(0, 3)) + "//t" +
            std::to_string(rng.Uniform(0, 3));
        expected[name] = {query, QueryTreeCount(&store, name, query)};
        ASSERT_NE(expected[name].second, ~uint64_t{0});
      }
    }
    DocumentStore restarted(DurableOptions(dir));
    ASSERT_EQ(restarted.warm_count(), 4u);
    for (const auto& [name, qa] : expected) {
      SCOPED_TRACE(name);
      EXPECT_EQ(QueryTreeCount(&restarted, name, qa.first), qa.second);
      EXPECT_EQ(InfoFor(&restarted, name).source_parses, 0u);
    }
  }
}

TEST(DurabilityTest, FlippedSpillByteIsIsolatedColdMiss) {
  const std::string dir = FreshDataDir("crcflip");
  auto expected = [&] {
    DocumentStore store(DurableOptions(dir));
    return SeedCorpus(&store);
  }();
  const std::string spill = SpillPathFor(dir, "beta");
  ASSERT_FALSE(spill.empty());
  std::string bytes = ReadRawFile(spill);
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteRawFile(spill, bytes);

  DocumentStore restarted(DurableOptions(dir));
  EXPECT_EQ(restarted.warm_count(), 3u);  // corruption found at fault-in
  const auto acquired = restarted.Acquire("beta");
  ASSERT_FALSE(acquired.ok());
  EXPECT_EQ(acquired.status().code(), StatusCode::kCorruption);
  EXPECT_NE(acquired.status().message().find("unrecoverable"),
            std::string::npos)
      << acquired.status().ToString();
  // The entry degrades to cold: the canonical miss is reported once,
  // afterwards the name is simply not loaded.
  const auto again = restarted.Acquire("beta");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(
      restarted.registry()->CounterValue("xcq_store_warm_misses_total", {}),
      1.0);
  for (const std::string name : {"alpha", "gamma"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(QueryTreeCount(&restarted, name, expected[name].first),
              expected[name].second);
  }
  // A cold miss is recoverable the way any unknown name is: re-LOAD.
  XCQ_ASSERT_OK(
      restarted.LoadXml("beta", testing::AlternatingBinaryTreeXml(5)));
  EXPECT_EQ(QueryTreeCount(&restarted, "beta", expected["beta"].first),
            expected["beta"].second);
}

TEST(DurabilityTest, MissingSpillFileIsIsolatedColdMiss) {
  const std::string dir = FreshDataDir("missing");
  auto expected = [&] {
    DocumentStore store(DurableOptions(dir));
    return SeedCorpus(&store);
  }();
  // The file vanishes after the restarted store registered it warm: a
  // spill missing at startup is simply not cataloged.
  DocumentStore restarted(DurableOptions(dir));
  ASSERT_EQ(restarted.warm_count(), 3u);
  const std::string spill = SpillPathFor(dir, "gamma");
  ASSERT_FALSE(spill.empty());
  ASSERT_EQ(::unlink(spill.c_str()), 0);

  const auto acquired = restarted.Acquire("gamma");
  ASSERT_FALSE(acquired.ok());
  EXPECT_EQ(acquired.status().code(), StatusCode::kCorruption);
  EXPECT_NE(acquired.status().message().find("unrecoverable"),
            std::string::npos);
  for (const std::string name : {"alpha", "beta"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(QueryTreeCount(&restarted, name, expected[name].first),
              expected[name].second);
  }
}

TEST(DurabilityTest, TransientReadFailureKeepsWarmEntryAndRetries) {
  const std::string dir = FreshDataDir("transient");
  uint64_t want = 0;
  {
    DocumentStore store(DurableOptions(dir));
    XCQ_ASSERT_OK(store.LoadXml("alpha", testing::BibExampleXml()));
    want = QueryTreeCount(&store, "alpha", "//paper/author");
  }
  DocumentStore restarted(DurableOptions(dir));
  ASSERT_EQ(restarted.warm_count(), 1u);
  // Make the spill temporarily unreadable without deleting it: swap a
  // directory in at its path (open succeeds, read fails EISDIR) — the
  // moral equivalent of fd pressure or a flaky disk, and unlike
  // chmod 0 it fails for root too.
  const std::string spill = SpillPathFor(dir, "alpha");
  ASSERT_FALSE(spill.empty());
  const std::string hidden = spill + ".hidden";
  ASSERT_EQ(::rename(spill.c_str(), hidden.c_str()), 0);
  ASSERT_EQ(::mkdir(spill.c_str(), 0755), 0);

  const auto acquired = restarted.Acquire("alpha");
  ASSERT_FALSE(acquired.ok());
  EXPECT_EQ(acquired.status().code(), StatusCode::kIoError);
  EXPECT_NE(acquired.status().message().find("will retry"),
            std::string::npos)
      << acquired.status().ToString();
  // A transient failure must not destroy durable state: the entry is
  // still warm and its spill bytes are untouched.
  EXPECT_EQ(restarted.warm_count(), 1u);
  EXPECT_TRUE(InfoFor(&restarted, "alpha").warm);
  EXPECT_TRUE(FileExists(hidden));

  // Heal the "disk": the very next request faults in normally.
  ASSERT_EQ(::rmdir(spill.c_str()), 0);
  ASSERT_EQ(::rename(hidden.c_str(), spill.c_str()), 0);
  EXPECT_EQ(QueryTreeCount(&restarted, "alpha", "//paper/author"), want);
  EXPECT_EQ(restarted.warm_count(), 0u);
  EXPECT_EQ(InfoFor(&restarted, "alpha").source_parses, 0u);
}

TEST(DurabilityTest, ZeroByteSpillIsIsolatedColdMiss) {
  const std::string dir = FreshDataDir("zerobyte");
  auto expected = [&] {
    DocumentStore store(DurableOptions(dir));
    return SeedCorpus(&store);
  }();
  const std::string spill = SpillPathFor(dir, "alpha");
  ASSERT_FALSE(spill.empty());
  WriteRawFile(spill, "");

  DocumentStore restarted(DurableOptions(dir));
  const auto acquired = restarted.Acquire("alpha");
  ASSERT_FALSE(acquired.ok());
  EXPECT_EQ(acquired.status().code(), StatusCode::kCorruption);
  for (const std::string name : {"beta", "gamma"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(QueryTreeCount(&restarted, name, expected[name].first),
              expected[name].second);
  }
}

TEST(DurabilityTest, FooterlessSpillIsIsolatedColdMiss) {
  const std::string dir = FreshDataDir("footerless");
  auto expected = [&] {
    DocumentStore store(DurableOptions(dir));
    return SeedCorpus(&store);
  }();
  // Cut the spill back to its payload: every byte of a complete image
  // but the footer. A spill must carry its footer, so this is a torn
  // write.
  const std::string spill = SpillPathFor(dir, "alpha");
  ASSERT_FALSE(spill.empty());
  const std::string bytes = ReadRawFile(spill);
  constexpr size_t kFooterBytes = 16;
  ASSERT_GT(bytes.size(), kFooterBytes);
  const std::string payload = bytes.substr(0, bytes.size() - kFooterBytes);
  EXPECT_EQ(DeserializeInstance(payload).status().code(),
            StatusCode::kCorruption);
  WriteRawFile(spill, payload);

  DocumentStore restarted(DurableOptions(dir));
  EXPECT_EQ(restarted.warm_count(), 3u);
  const auto acquired = restarted.Acquire("alpha");
  ASSERT_FALSE(acquired.ok());
  EXPECT_EQ(acquired.status().code(), StatusCode::kCorruption);
  EXPECT_NE(acquired.status().message().find("unrecoverable"),
            std::string::npos)
      << acquired.status().ToString();
  EXPECT_EQ(restarted.Acquire("alpha").status().code(),
            StatusCode::kNotFound);
  for (const std::string name : {"beta", "gamma"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(QueryTreeCount(&restarted, name, expected[name].first),
              expected[name].second);
  }
}

TEST(DurabilityTest, PreviousLayoutDataDirStartsColdAndKeepsFiles) {
  // The layout before the data dir became its own catalog: a MANIFEST
  // naming generation-numbered spill files.
  const std::string dir = FreshDataDir("oldlayout");
  const std::string spill_bytes =
      SerializeInstanceChecksummed(CompressedBib());
  WriteRawFile(dir + "/alpha.g1.xcqi", spill_bytes);
  WriteRawFile(dir + "/MANIFEST",
               "XCQM 1\ndoc alpha alpha.g1.xcqi " +
                   std::to_string(spill_bytes.size()) + " " +
                   std::to_string(Crc32(spill_bytes)) + " 1 -\n");

  {
    DocumentStore store(DurableOptions(dir));
    XCQ_ASSERT_OK(store.durability_status());
    EXPECT_EQ(store.warm_count(), 0u);
    EXPECT_EQ(store.recovery_stats().recovered, 0u);
    EXPECT_GE(store.recovery_stats().errors, 1u);
    EXPECT_EQ(store.Acquire("alpha").status().code(),
              StatusCode::kNotFound);
    // LOAD again is the way forward; it writes the new layout beside
    // the old files.
    XCQ_ASSERT_OK(store.LoadInstance("alpha", CompressedBib()));
  }
  EXPECT_EQ(ReadRawFile(dir + "/alpha.g1.xcqi"), spill_bytes);
  EXPECT_TRUE(FileExists(dir + "/MANIFEST"));
  DocumentStore restarted(DurableOptions(dir));
  EXPECT_EQ(restarted.warm_count(), 1u);
  EXPECT_GE(restarted.recovery_stats().errors, 1u);
  EXPECT_NE(QueryTreeCount(&restarted, "alpha", "//book[author[\"Vianu\"]]"),
            ~uint64_t{0});
  EXPECT_TRUE(FileExists(dir + "/alpha.g1.xcqi"));
  EXPECT_TRUE(FileExists(dir + "/MANIFEST"));
}

TEST(DurabilityTest, FormatOneSpillStartsColdAndIsLeftInPlace) {
  // A data dir written before spill format 2: its spill is durable data
  // this build cannot read. Registering it would let the first fault-in
  // delete it as corrupt; instead it is counted and kept.
  const std::string dir = FreshDataDir("formatone");
  const std::string fixture =
      std::string(XCQ_TEST_DATA_DIR) + "/v1_bib_footered.xcqi";
  const std::string v1_bytes = ReadRawFile(fixture);
  ASSERT_EQ(InstanceFormatVersion(v1_bytes), 1u);
  WriteRawFile(dir + "/bib.xcqi", v1_bytes);

  DocumentStore store(DurableOptions(dir));
  XCQ_ASSERT_OK(store.durability_status());
  EXPECT_EQ(store.warm_count(), 0u);
  EXPECT_EQ(store.recovery_stats().recovered, 0u);
  EXPECT_EQ(store.recovery_stats().errors, 1u);
  EXPECT_EQ(
      store.registry()->CounterValue("xcq_store_recovery_errors_total", {}),
      1.0);
  EXPECT_EQ(store.Acquire("bib").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ReadRawFile(dir + "/bib.xcqi"), v1_bytes);

  // LOAD of a format-1 file names the version it refuses.
  const Status loaded = store.LoadFile("old", fixture);
  EXPECT_EQ(loaded.code(), StatusCode::kCorruption);
  EXPECT_EQ(loaded.message(), "unsupported instance format version 1");
  EXPECT_EQ(store.document_count(), 0u);
}

TEST(DurabilityTest, EscapedNamesRestartAsDistinctDocuments) {
  // Names that differ only in case, or hold bytes no file name should
  // (dots, slashes, spaces), still get one spill each and come back
  // under their own names.
  const std::string dir = FreshDataDir("escaped");
  const std::vector<std::string> names = {"Bib", "bib", "bib.g1", "a/b c",
                                          "%41"};
  {
    DocumentStore store(DurableOptions(dir));
    for (const std::string& name : names) {
      XCQ_ASSERT_OK(store.LoadInstance(name, CompressedBib()));
    }
  }
  EXPECT_EQ(ListDir(dir).size(), names.size());
  DocumentStore restarted(DurableOptions(dir));
  EXPECT_EQ(restarted.recovery_stats().errors, 0u);
  EXPECT_EQ(restarted.warm_count(), names.size());
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    EXPECT_NE(QueryTreeCount(&restarted, name, "//paper/author"),
              ~uint64_t{0});
  }
}

TEST(DurabilityTest, StrayTmpArtifactsAreCleanedUp) {
  const std::string dir = FreshDataDir("tmpjunk");
  auto expected = [&] {
    DocumentStore store(DurableOptions(dir));
    return SeedCorpus(&store);
  }();
  // A crash between temp-write and rename leaves .tmp files behind.
  WriteRawFile(dir + "/MANIFEST.tmp", "XCQM 1\ndoc half-written");
  WriteRawFile(dir + "/alpha.xcqi.tmp", "torn spill bytes");

  DocumentStore restarted(DurableOptions(dir));
  XCQ_ASSERT_OK(restarted.durability_status());
  EXPECT_EQ(restarted.warm_count(), 3u);
  EXPECT_FALSE(FileExists(dir + "/MANIFEST.tmp"));
  EXPECT_FALSE(FileExists(dir + "/alpha.xcqi.tmp"));
  EXPECT_EQ(restarted.recovery_stats().errors, 0u);
  for (const auto& [name, qa] : expected) {
    SCOPED_TRACE(name);
    EXPECT_EQ(QueryTreeCount(&restarted, name, qa.first), qa.second);
  }
}

TEST(DurabilityTest, ConcurrentAcquireIsSingleFlight) {
  const std::string dir = FreshDataDir("singleflight");
  uint64_t want = 0;
  {
    DocumentStore store(DurableOptions(dir));
    XCQ_ASSERT_OK(store.LoadXml("alpha", testing::BibExampleXml()));
    want = QueryTreeCount(&store, "alpha", "//paper/author");
  }
  DocumentStore restarted(DurableOptions(dir));
  ASSERT_EQ(restarted.warm_count(), 1u);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<uint64_t> got(kThreads, ~uint64_t{0});
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[static_cast<size_t>(t)] =
          QueryTreeCount(&restarted, "alpha", "//paper/author");
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], want) << "thread " << t;
  }
  // One spill read, one parse-free session — the stampede collapsed.
  EXPECT_EQ(restarted.spill_reads(), 1u);
  EXPECT_EQ(InfoFor(&restarted, "alpha").source_parses, 0u);
  EXPECT_EQ(
      restarted.registry()->CounterValue("xcq_store_warm_hits_total", {}),
      1.0);
}

TEST(DurabilityTest, ConcurrentRespillAndFaultInNeverLoseTheDocument) {
  // The respill ↔ fault-in race: PERSIST (or a demotion refresh)
  // renames a new spill over the one a fault-in is reading. The reader
  // holds either the complete old or the complete new file — the
  // document must never degrade to cold, and its durable copy must
  // survive the churn.
  const std::string dir = FreshDataDir("respillrace");
  DocumentStore store(DurableOptions(dir));
  XCQ_ASSERT_OK(store.LoadXml("alpha", testing::BibExampleXml()));
  const uint64_t want = QueryTreeCount(&store, "alpha", "//paper/author");

  std::thread churner([&store] {
    for (int i = 0; i < 80; ++i) {
      // Resident: forces a new spill generation. Warm-only: a no-op.
      const Status persisted = store.Persist("alpha");
      EXPECT_TRUE(persisted.ok()) << persisted.ToString();
      EXPECT_TRUE(store.Evict("alpha"));  // demote (or keep warm)
    }
  });
  for (int i = 0; i < 80; ++i) {
    const auto acquired = store.Acquire("alpha");
    ASSERT_TRUE(acquired.ok()) << "iteration " << i << ": "
                               << acquired.status().ToString();
    const auto outcome = acquired.Value()->Query("//paper/author");
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome.Value().selected_tree_nodes, want);
  }
  churner.join();
  EXPECT_EQ(QueryTreeCount(&store, "alpha", "//paper/author"), want);
  EXPECT_FALSE(SpillPathFor(dir, "alpha").empty());
}

TEST(DurabilityTest, EvictDemotesToWarmAndFaultsBack) {
  const std::string dir = FreshDataDir("demote");
  DocumentStore store(DurableOptions(dir));
  XCQ_ASSERT_OK(store.LoadXml("alpha", testing::BibExampleXml()));
  const uint64_t want = QueryTreeCount(&store, "alpha", "//paper/author");

  EXPECT_TRUE(store.Evict("alpha"));
  EXPECT_EQ(store.Find("alpha"), nullptr);
  EXPECT_EQ(store.warm_count(), 1u);
  EXPECT_EQ(store.document_count(), 0u);
  ASSERT_FALSE(SpillPathFor(dir, "alpha").empty());
  // A second EVICT of the now-warm name is still true (it names a
  // known document) and keeps it warm.
  EXPECT_TRUE(store.Evict("alpha"));
  EXPECT_EQ(store.warm_count(), 1u);

  EXPECT_EQ(QueryTreeCount(&store, "alpha", "//paper/author"), want);
  EXPECT_EQ(store.warm_count(), 0u);
  EXPECT_EQ(store.document_count(), 1u);
}

TEST(DurabilityTest, ForgetRemovesResidencyAndSpill) {
  const std::string dir = FreshDataDir("forget");
  {
    DocumentStore store(DurableOptions(dir));
    SeedCorpus(&store);
    const std::string spill = SpillPathFor(dir, "beta");
    ASSERT_FALSE(spill.empty());
    EXPECT_TRUE(store.Forget("beta"));
    EXPECT_FALSE(FileExists(spill));
    EXPECT_EQ(store.Find("beta"), nullptr);
    EXPECT_FALSE(store.Forget("beta"));  // second time: nothing left
  }
  DocumentStore restarted(DurableOptions(dir));
  EXPECT_EQ(restarted.warm_count(), 2u);
  EXPECT_EQ(restarted.Acquire("beta").status().code(),
            StatusCode::kNotFound);
}

TEST(DurabilityTest, PersistRequiresCompiledInstanceThenWrites) {
  const std::string dir = FreshDataDir("persist");
  DocumentStore store(DurableOptions(dir));
  XCQ_ASSERT_OK(store.LoadXml("alpha", testing::BibExampleXml()));
  // No query yet — an XML document compiles its instance lazily, so
  // there is nothing to persist.
  const Status premature = store.Persist("alpha");
  EXPECT_EQ(premature.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(SpillPathFor(dir, "alpha").empty());

  const uint64_t want = QueryTreeCount(&store, "alpha", "//paper/author");
  XCQ_ASSERT_OK(store.Persist("alpha"));
  EXPECT_FALSE(SpillPathFor(dir, "alpha").empty());
  EXPECT_EQ(store.Persist("missing").code(), StatusCode::kNotFound);

  // And the spill is complete: restart serves from it alone.
  DocumentStore restarted(DurableOptions(dir));
  EXPECT_EQ(QueryTreeCount(&restarted, "alpha", "//paper/author"), want);
}

TEST(DurabilityTest, CapacityEvictionDemotesInsteadOfDiscarding) {
  const std::string dir = FreshDataDir("capacity");
  StoreOptions options = DurableOptions(dir);
  DocumentStore store(options);
  XCQ_ASSERT_OK(store.LoadInstance("first", CompressedBib()));
  // The at-load footprint, before any query grows the instance — the
  // tight store below sees exactly this size per fresh load.
  const size_t one = InfoFor(&store, "first").memory_bytes;
  ASSERT_GT(one, 0u);
  const uint64_t want =
      QueryTreeCount(&store, "first", "//book[author[\"Vianu\"]]");
  StoreOptions tight = DurableOptions(FreshDataDir("capacity2"));
  tight.capacity_bytes = one + one / 2;
  DocumentStore small(tight);
  XCQ_ASSERT_OK(small.LoadInstance("first", CompressedBib()));
  XCQ_ASSERT_OK(small.LoadInstance("second", CompressedBib()));
  // "first" was demoted, not destroyed: still warm, still answerable.
  EXPECT_EQ(small.document_count(), 1u);
  EXPECT_EQ(small.warm_count(), 1u);
  EXPECT_EQ(small.Find("first"), nullptr);
  EXPECT_EQ(QueryTreeCount(&small, "first", "//book[author[\"Vianu\"]]"),
            want);
}

TEST(DurabilityTest, NameTooLongToSpillIsRejectedBeforeInstall) {
  // An upper-case letter escapes to three bytes, so 82 of them make a
  // 246-byte stem whose temp file `<stem>.xcqi.tmp` is exactly NAME_MAX
  // (255) bytes; 83 make one that no spill write could ever create.
  const std::string dir = FreshDataDir("longname");
  const std::string xml_path = ::testing::TempDir() + "/longname.xml";
  XCQ_ASSERT_OK(xml::WriteStringToFile(xml_path, testing::BibExampleXml()));
  const std::string fits(82, 'A');
  const std::string too_long(83, 'A');
  std::string fits_stem;
  for (size_t i = 0; i < fits.size(); ++i) fits_stem += "%41";

  DocumentStore store(DurableOptions(dir));
  server::QueryService service(&store, server::ServiceOptions{1});
  const std::vector<std::string> output = testing::Converse(
      &store, &service,
      {"LOAD " + fits + " " + xml_path, "QUERY " + fits + " //paper/author",
       "LOAD " + too_long + " " + xml_path, "STATS"});
  ASSERT_EQ(output.size(), 5u);
  EXPECT_EQ(output[0].rfind("OK loaded " + fits + " ", 0), 0u) << output[0];
  EXPECT_EQ(output[1].rfind("OK dag=", 0), 0u) << output[1];
  EXPECT_EQ(output[2].rfind("ERR InvalidArgument", 0), 0u) << output[2];
  EXPECT_EQ(output[3], "OK 1");
  EXPECT_EQ(output[4].rfind(fits + " ", 0), 0u) << output[4];
  EXPECT_NE(output[4].find(" warm=1 "), std::string::npos) << output[4];
  EXPECT_EQ(ListDir(dir), std::vector<std::string>{fits_stem + ".xcqi"});
  EXPECT_EQ(store.Acquire(too_long).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.LoadInstance(too_long, CompressedBib()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Stats().size(), 1u);

  // A memory-only store never spills, so it takes any name.
  DocumentStore memory_only;
  XCQ_EXPECT_OK(memory_only.LoadXml(too_long, testing::BibExampleXml()));
  EXPECT_NE(QueryTreeCount(&memory_only, too_long, "//paper/author"),
            ~uint64_t{0});
  std::remove(xml_path.c_str());
}

TEST(DurabilityTest, XmlReloadDropsTheReplacedSpill) {
  // An XML LOAD has nothing to spill before its first query, so the
  // replaced document's spill must not survive it: EVICT and restart
  // then answer NotFound instead of the old content.
  const std::string dir = FreshDataDir("reload");
  {
    DocumentStore store(DurableOptions(dir));
    XCQ_ASSERT_OK(store.LoadXml("d", "<r><a/><a/><a/></r>"));
    EXPECT_EQ(QueryTreeCount(&store, "d", "//a"), 3u);
    ASSERT_NE(SpillPathFor(dir, "d"), "");
    XCQ_ASSERT_OK(store.LoadXml("d", "<r><b/></r>"));
    EXPECT_EQ(SpillPathFor(dir, "d"), "");
    EXPECT_TRUE(store.Evict("d"));
    EXPECT_EQ(store.Acquire("d").status().code(), StatusCode::kNotFound);
    XCQ_ASSERT_OK(store.LoadXml("d", "<r><b/></r>"));
    EXPECT_EQ(QueryTreeCount(&store, "d", "//a"), 0u);
  }
  DocumentStore restarted(DurableOptions(dir));
  EXPECT_EQ(QueryTreeCount(&restarted, "d", "//a"), 0u);
}

TEST(DurabilityTest, NoDataDirIsMemoryOnlyAsBefore) {
  DocumentStore store;
  EXPECT_FALSE(store.durable());
  XCQ_ASSERT_OK(store.durability_status());
  XCQ_ASSERT_OK(store.LoadXml("alpha", testing::BibExampleXml()));
  EXPECT_NE(QueryTreeCount(&store, "alpha", "//paper/author"),
            ~uint64_t{0});
  EXPECT_EQ(store.Persist("alpha").code(), StatusCode::kInvalidArgument);
  // Eviction without durability is a full drop.
  EXPECT_TRUE(store.Evict("alpha"));
  EXPECT_EQ(store.warm_count(), 0u);
  EXPECT_EQ(store.Acquire("alpha").status().code(), StatusCode::kNotFound);
}

TEST(DurabilityTest, UnusableDataDirDegradesToMemoryOnly) {
  StoreOptions options;
  options.data_dir = "/proc/definitely/not/creatable";
  DocumentStore store(options);
  EXPECT_FALSE(store.durable());
  EXPECT_FALSE(store.durability_status().ok());
  // Still a fully working memory-only store.
  XCQ_ASSERT_OK(store.LoadXml("alpha", testing::BibExampleXml()));
  EXPECT_NE(QueryTreeCount(&store, "alpha", "//paper/author"),
            ~uint64_t{0});
}

TEST(DurabilityTest, SpillRefreshTracksLabelGrowth) {
  // Labels merged by later queries must reach the spill so a restart
  // can answer those queries parse-free.
  const std::string dir = FreshDataDir("labelgrow");
  uint64_t want_title = 0;
  {
    DocumentStore store(DurableOptions(dir));
    XCQ_ASSERT_OK(store.LoadXml("alpha", testing::BibExampleXml()));
    (void)QueryTreeCount(&store, "alpha", "//paper/author");
    // "//title" needs a label the first query never tracked; serving it
    // merges the label in and the post-query spill picks it up.
    want_title = QueryTreeCount(&store, "alpha", "//title");
    ASSERT_NE(want_title, ~uint64_t{0});
  }
  DocumentStore restarted(DurableOptions(dir));
  EXPECT_EQ(QueryTreeCount(&restarted, "alpha", "//title"), want_title);
  const DocumentInfo info = InfoFor(&restarted, "alpha");
  EXPECT_EQ(info.source_parses, 0u);
  // But a label never queried before the stop is genuinely absent — an
  // instance-only session refuses instead of guessing.
  auto doc = restarted.Acquire("alpha");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.Value()->Query("//year").status().code(),
            StatusCode::kNotFound);
}

TEST(DurabilityTest, DemotionRespillsSplitInstanceSoFaultInSplitsNothing) {
  // An instance LOAD spills before any query, so the spill holds the
  // unsplit instance. Demotion must write the split one: otherwise
  // every fault-in replays the same partial decompression.
  const std::string dir = FreshDataDir("respillsplits");
  DocumentStore store(DurableOptions(dir));
  XCQ_ASSERT_OK(store.LoadInstance("bib", PaperAuthorBib()));
  uint64_t want = 0;
  {
    auto doc = store.Acquire("bib");
    ASSERT_TRUE(doc.ok()) << doc.status();
    const auto first = doc.Value()->Query("//paper/author");
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_EQ(first.Value().stats.splits, 2u);
    want = first.Value().selected_tree_nodes;
  }
  const double before_evict = SpillWrites(&store);
  ASSERT_TRUE(store.Evict("bib"));
  EXPECT_EQ(SpillWrites(&store), before_evict + 1);

  {
    auto doc = store.Acquire("bib");
    ASSERT_TRUE(doc.ok()) << doc.status();
    const auto again = doc.Value()->Query("//paper/author");
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again.Value().stats.splits, 0u);
    EXPECT_EQ(again.Value().selected_tree_nodes, want);
  }
  // The spill is decoded straight into a validated instance with its
  // traversal cached: the fault-in and its first query walk nothing.
  const DocumentInfo info = InfoFor(&store, "bib");
  EXPECT_EQ(info.traversal_builds, 0u);
  EXPECT_EQ(info.summary_builds, 0u);  // frozen: there is no summary

  // At the fixpoint a demotion has nothing new to write: no fsync per
  // EVICT.
  const double at_fixpoint = SpillWrites(&store);
  ASSERT_TRUE(store.Evict("bib"));
  EXPECT_EQ(SpillWrites(&store), at_fixpoint);
  EXPECT_EQ(QueryTreeCount(&store, "bib", "//paper/author"), want);
}

TEST(DurabilityTest, FlushSpillsRespillsSplitInstanceForRestart) {
  const std::string dir = FreshDataDir("flushsplits");
  uint64_t want = 0;
  {
    DocumentStore store(DurableOptions(dir));
    XCQ_ASSERT_OK(store.LoadInstance("bib", PaperAuthorBib()));
    want = QueryTreeCount(&store, "bib", "//paper/author");
    ASSERT_NE(want, ~uint64_t{0});
    store.FlushSpills();  // graceful stop
  }
  DocumentStore restarted(DurableOptions(dir));
  auto doc = restarted.Acquire("bib");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const auto outcome = doc.Value()->Query("//paper/author");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome.Value().selected_tree_nodes, want);
  EXPECT_EQ(outcome.Value().stats.splits, 0u);
  EXPECT_EQ(InfoFor(&restarted, "bib").source_parses, 0u);
}

TEST(DurabilityTest, SplittingQueryWritesNoSpillOnTheRequestPath) {
  // Splits alone never cost a serialize + fsync while serving: only
  // label growth respills per query; structure waits for demotion.
  const std::string dir = FreshDataDir("nosplitfsync");
  DocumentStore store(DurableOptions(dir));
  XCQ_ASSERT_OK(store.LoadInstance("bib", CompressedBib()));
  const double at_load = SpillWrites(&store);
  EXPECT_EQ(at_load, 1);
  auto doc = store.Acquire("bib");
  ASSERT_TRUE(doc.ok()) << doc.status();
  uint64_t splits = 0;
  for (const char* query : {"//paper/author", "//book/title"}) {
    const auto outcome = doc.Value()->Query(query);
    ASSERT_TRUE(outcome.ok()) << query << ": " << outcome.status();
    splits += outcome.Value().stats.splits;
  }
  EXPECT_GT(splits, 0u);
  EXPECT_EQ(SpillWrites(&store), at_load);
}

}  // namespace
}  // namespace xcq
