// Serialization coverage for instance_io: corruption handling (every
// kind of malformed input must come back as kCorruption, never a crash
// or a quietly-wrong instance) and a full serialize → deserialize →
// query round-trip on a multi-label instance.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "test_util.h"
#include "xcq/api.h"
#include "xcq/util/rng.h"

namespace xcq {
namespace {

/// Varint encoder mirroring the writer's, for hand-crafting streams.
void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}

/// Header for a hand-crafted instance stream: magic, version, counts,
/// no relations.
std::string Header(uint64_t vertex_count, uint64_t root_plus1) {
  std::string out("XCQI");
  PutU32(&out, 1);
  PutVarint(&out, vertex_count);
  PutVarint(&out, root_plus1);
  PutVarint(&out, 0);  // relation count
  return out;
}

Instance CompressedBib() {
  CompressOptions copts;
  copts.mode = LabelMode::kSchema;
  copts.tags = {"paper", "author", "title", "book"};
  copts.patterns = {"Vianu", "Codd"};
  auto instance = CompressXml(testing::BibExampleXml(), copts);
  EXPECT_TRUE(instance.ok()) << instance.status();
  return std::move(instance).Value();
}

TEST(InstanceIoTest, RoundTripPreservesStructureAndLabels) {
  const Instance original = CompressedBib();
  const std::string bytes = SerializeInstance(original);

  XCQ_ASSERT_OK_AND_ASSIGN(const Instance reloaded,
                           DeserializeInstance(bytes));
  XCQ_ASSERT_OK(reloaded.Validate());
  EXPECT_EQ(reloaded.vertex_count(), original.vertex_count());
  EXPECT_EQ(reloaded.rle_edge_count(), original.rle_edge_count());
  EXPECT_EQ(reloaded.root(), original.root());
  EXPECT_EQ(TreeNodeCount(reloaded), TreeNodeCount(original));
  EXPECT_EQ(reloaded.schema().LiveNames(), original.schema().LiveNames());
  for (const RelationId r : original.LiveRelations()) {
    const RelationId r2 =
        reloaded.FindRelation(original.schema().Name(r));
    ASSERT_NE(r2, kNoRelation);
    EXPECT_EQ(reloaded.RelationBits(r2).Count(),
              original.RelationBits(r).Count());
  }
}

TEST(InstanceIoTest, RoundTripAnswersQueriesIdentically) {
  // The acceptance path of the server: reload a multi-label instance and
  // query it with no document behind it.
  const std::string queries[] = {
      "//paper/author",
      "//book[author[\"Vianu\"]]",
      "//paper[author[\"Codd\"]]/title",
  };

  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession reference,
      QuerySession::Open(testing::BibExampleXml()));
  XCQ_ASSERT_OK_AND_ASSIGN(
      const Instance reloaded,
      DeserializeInstance(SerializeInstance(CompressedBib())));
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession loaded,
                           QuerySession::FromInstance(reloaded));
  EXPECT_FALSE(loaded.has_source());

  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome want,
                             reference.Run(query));
    XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome got, loaded.Run(query));
    EXPECT_EQ(got.selected_tree_nodes, want.selected_tree_nodes);
  }
  EXPECT_EQ(loaded.source_parse_count(), 0u);
}

TEST(InstanceIoTest, FromInstanceMissingLabelIsNotFoundNotReparse) {
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession loaded,
      QuerySession::FromInstance(
          DeserializeInstance(SerializeInstance(CompressedBib())).Value()));
  // "year" was never compressed in; with no source text the session must
  // refuse rather than silently answer from an absent relation.
  const Status status = loaded.Run("//paper[year]").status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("year"), std::string::npos);
  EXPECT_EQ(loaded.source_parse_count(), 0u);
}

TEST(InstanceIoTest, TruncatedAtEveryPrefixIsCorruption) {
  const std::string bytes = SerializeInstance(CompressedBib());
  ASSERT_GT(bytes.size(), 8u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    const auto truncated = DeserializeInstance(
        std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(truncated.ok()) << "prefix of length " << len;
    EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption)
        << "prefix of length " << len;
  }
}

TEST(InstanceIoTest, BadMagicIsCorruption) {
  std::string bytes = SerializeInstance(CompressedBib());
  bytes[0] = 'Y';
  const auto result = DeserializeInstance(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("magic"), std::string::npos);
}

TEST(InstanceIoTest, UnsupportedVersionIsCorruption) {
  std::string bytes = SerializeInstance(CompressedBib());
  bytes[4] = 99;  // version lives right after the 4-byte magic
  const auto result = DeserializeInstance(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(InstanceIoTest, TrailingBytesAreCorruption) {
  std::string bytes = SerializeInstance(CompressedBib());
  bytes += "junk";
  const auto result = DeserializeInstance(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(InstanceIoTest, CyclicChildReferencesAreCorruption) {
  // A serialized cycle (v0 → v1 → v0) deserializes structurally but must
  // be rejected by validation: instances are DAGs.
  std::string bytes = Header(/*vertex_count=*/2, /*root_plus1=*/1);
  PutVarint(&bytes, 1);  // v0: one run
  PutVarint(&bytes, 1);  //   child v1
  PutVarint(&bytes, 1);  //   count 1
  PutVarint(&bytes, 1);  // v1: one run
  PutVarint(&bytes, 0);  //   child v0 — closes the cycle
  PutVarint(&bytes, 1);  //   count 1
  const auto result = DeserializeInstance(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(InstanceIoTest, SelfLoopIsCorruption) {
  std::string bytes = Header(1, 1);
  PutVarint(&bytes, 1);  // v0: one run
  PutVarint(&bytes, 0);  //   child v0
  PutVarint(&bytes, 1);
  const auto result = DeserializeInstance(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(InstanceIoTest, ChildOutOfRangeIsCorruption) {
  std::string bytes = Header(1, 1);
  PutVarint(&bytes, 1);  // v0: one run
  PutVarint(&bytes, 7);  //   child v7 of a 1-vertex instance
  PutVarint(&bytes, 1);
  const auto result = DeserializeInstance(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(InstanceIoTest, ZeroMultiplicityIsCorruption) {
  std::string bytes = Header(2, 1);
  PutVarint(&bytes, 1);  // v0: one run
  PutVarint(&bytes, 1);  //   child v1
  PutVarint(&bytes, 0);  //   count 0 — RLE runs are >= 1
  PutVarint(&bytes, 0);  // v1: leaf
  const auto result = DeserializeInstance(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(InstanceIoTest, RootOutOfRangeIsCorruption) {
  const std::string bytes = Header(1, /*root_plus1=*/5);
  const auto result = DeserializeInstance(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(InstanceIoTest, ChecksummedRoundTrip) {
  const Instance original = CompressedBib();
  const std::string bytes = SerializeInstanceChecksummed(original);
  // Footer = crc32 | payload size | "XCQF", 16 bytes past the payload.
  ASSERT_EQ(bytes.size(), SerializeInstance(original).size() + 16);
  EXPECT_EQ(bytes.substr(bytes.size() - 4), "XCQF");
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance reloaded,
                           DeserializeInstance(bytes));
  XCQ_ASSERT_OK(reloaded.Validate());
  EXPECT_EQ(reloaded.vertex_count(), original.vertex_count());
  EXPECT_EQ(TreeNodeCount(reloaded), TreeNodeCount(original));
}

TEST(InstanceIoTest, ChecksummedTruncatedFooterIsCorruption) {
  const std::string bytes =
      SerializeInstanceChecksummed(CompressedBib());
  // Dropping any suffix of the footer destroys the end magic, so the
  // stream falls back to the legacy parse — which then chokes on the
  // partial footer as trailing bytes. Either way: kCorruption.
  for (size_t drop = 1; drop <= 15; ++drop) {
    const auto result = DeserializeInstance(
        std::string_view(bytes).substr(0, bytes.size() - drop));
    ASSERT_FALSE(result.ok()) << "dropped " << drop << " bytes";
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
        << "dropped " << drop << " bytes";
  }
}

TEST(InstanceIoTest, ChecksummedPayloadFlipIsCrcMismatch) {
  std::string bytes = SerializeInstanceChecksummed(CompressedBib());
  for (const size_t pos : {size_t{9}, bytes.size() / 2, bytes.size() - 17}) {
    SCOPED_TRACE(pos);
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x40);
    const auto result = DeserializeInstance(flipped);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    EXPECT_NE(result.status().message().find("CRC"), std::string::npos);
  }
}

TEST(InstanceIoTest, ChecksummedTornWriteIsSizeMismatch) {
  // A torn write that somehow kept the 16-byte footer but lost payload
  // bytes: the recorded payload size no longer matches.
  const std::string bytes =
      SerializeInstanceChecksummed(CompressedBib());
  const std::string torn = bytes.substr(0, bytes.size() / 2) +
                           bytes.substr(bytes.size() - 16);
  const auto result = DeserializeInstance(torn);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("torn"), std::string::npos);
}

TEST(InstanceIoTest, SaveInstanceWritesChecksummedFormat) {
  const std::string path =
      ::testing::TempDir() + "/instance_io_test_checksummed.xcqi";
  XCQ_ASSERT_OK(SaveInstance(CompressedBib(), path));
  std::string raw;
  XCQ_ASSERT_OK_AND_ASSIGN(raw, xml::ReadFileToString(path));
  ASSERT_GE(raw.size(), 20u);
  EXPECT_EQ(raw.substr(raw.size() - 4), "XCQF");
  // And no stray temp file from the atomic write.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

TEST(InstanceIoTest, LegacyFooterlessFixtureStillLoads) {
  // tests/data/legacy_bib.xcqi is a checked-in bare (pre-footer) spill
  // of the bib example. It must load forever: a --data-dir written by an
  // older build survives the format upgrade.
  XCQ_ASSERT_OK_AND_ASSIGN(
      const Instance legacy,
      LoadInstance(std::string(XCQ_TEST_DATA_DIR) + "/legacy_bib.xcqi"));
  XCQ_ASSERT_OK(legacy.Validate());
  XCQ_ASSERT_OK_AND_ASSIGN(QuerySession session,
                           QuerySession::FromInstance(legacy));
  XCQ_ASSERT_OK_AND_ASSIGN(
      QuerySession reference,
      QuerySession::Open(testing::BibExampleXml()));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome want,
                           reference.Run("//paper/author"));
  XCQ_ASSERT_OK_AND_ASSIGN(const QueryOutcome got,
                           session.Run("//paper/author"));
  EXPECT_EQ(got.selected_tree_nodes, want.selected_tree_nodes);
}

TEST(InstanceIoTest, FooteredFixtureLoadsAndReserializesByteForByte) {
  // tests/data/bib_footered.xcqi is a checked-in SaveInstance output for
  // CompressedBib(). The on-disk format is frozen: the file must load,
  // and the writer must reproduce it byte for byte (payload, footer CRC
  // and size).
  const std::string path =
      std::string(XCQ_TEST_DATA_DIR) + "/bib_footered.xcqi";
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance loaded, LoadInstance(path));
  XCQ_ASSERT_OK_AND_ASSIGN(const std::string fixture,
                           xml::ReadFileToString(path));
  EXPECT_EQ(SerializeInstanceChecksummed(CompressedBib()), fixture);
  EXPECT_EQ(SerializeInstanceChecksummed(loaded), fixture);
}

TEST(InstanceIoTest, RelationBitsPastLastVertexAreCorruption) {
  // Two vertices, one relation: bits 0-1 are vertices, bit 2 is past
  // the end. The writer never sets it, so a file that does is corrupt.
  const auto payload = [](uint64_t word) {
    std::string out("XCQI");
    PutU32(&out, 1);
    PutVarint(&out, 2);  // vertex count
    PutVarint(&out, 1);  // root = v0
    PutVarint(&out, 1);  // one relation
    PutVarint(&out, 1);
    out += "a";
    PutVarint(&out, 1);  // v0: one run
    PutVarint(&out, 1);  //   child v1
    PutVarint(&out, 1);  //   count 1
    PutVarint(&out, 0);  // v1: leaf
    out.append(reinterpret_cast<const char*>(&word), 8);
    return out;
  };
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance ok,
                           DeserializeInstance(payload(0b11)));
  EXPECT_EQ(ok.RelationBits(ok.FindRelation("a")).Count(), 2u);
  const auto result = DeserializeInstance(payload(0b111));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("past the last vertex"),
            std::string::npos);
}

TEST(InstanceIoTest, ChecksummedRelationBitsPastLastVertexAreCorruption) {
  // Same defect behind a valid footer: the CRC is recomputed over the
  // damaged payload, so the structural check is what must fire.
  const Instance bib = CompressedBib();
  ASSERT_NE(bib.vertex_count() % 64, 0u);
  std::string payload = SerializeInstance(bib);
  // The payload ends in the last relation's last word; all-ones sets
  // every bit past vertex_count whatever the host byte order.
  payload.replace(payload.size() - 8, 8, 8, '\xFF');
  std::string file = payload;
  PutU32(&file, Crc32(payload));
  const uint64_t size = payload.size();
  file.append(reinterpret_cast<const char*>(&size), 8);
  file += "XCQF";
  const auto result = DeserializeInstance(file);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("past the last vertex"),
            std::string::npos);
}

TEST(InstanceIoTest, FromInstanceRejectsHandBuiltCycle) {
  // Validate's memo must not let a never-validated (or re-armed)
  // structure through FromInstance.
  Instance cyclic;
  const VertexId a = cyclic.AddVertex();
  const VertexId b = cyclic.AddVertex();
  const std::vector<Edge> ab = {{b, 1}};
  const std::vector<Edge> ba = {{a, 1}};
  cyclic.SetEdges(a, ab);
  cyclic.SetRoot(a);
  XCQ_ASSERT_OK(cyclic.Validate());
  cyclic.SetEdges(b, ba);
  const auto session = QuerySession::FromInstance(std::move(cyclic));
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kCorruption);
}

/// Bit-at-a-time CRC-32 (reflected IEEE polynomial): the definition the
/// table-driven Crc32 must reproduce.
uint32_t ReferenceCrc32(std::string_view bytes) {
  uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Uniform(0, 255));
  return out;
}

TEST(InstanceIoTest, Crc32MatchesBytewiseReferenceAtEveryAlignment) {
  // Lengths 0-64 cover the 8-byte body with every tail length; start
  // offsets 0-7 cover every alignment of the 8-byte loads.
  const std::string buffer = RandomBytes(64 + 8, 7);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const std::string_view bytes =
          std::string_view(buffer).substr(offset, len);
      ASSERT_EQ(Crc32(bytes), ReferenceCrc32(bytes))
          << "offset " << offset << " length " << len;
    }
  }
  const std::string large = RandomBytes(size_t{1} << 20, 42);
  EXPECT_EQ(Crc32(large), ReferenceCrc32(large));
}

TEST(InstanceIoTest, Crc32MatchesKnownVectors) {
  // IEEE 802.3 check values pin the polynomial and bit order.
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(InstanceIoTest, SaveLoadFileRoundTrip) {
  const Instance original = CompressedBib();
  const std::string path =
      ::testing::TempDir() + "/instance_io_test_roundtrip.xcqi";
  XCQ_ASSERT_OK(SaveInstance(original, path));
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance reloaded, LoadInstance(path));
  EXPECT_EQ(reloaded.vertex_count(), original.vertex_count());
  EXPECT_EQ(TreeNodeCount(reloaded), TreeNodeCount(original));
  std::remove(path.c_str());
}

TEST(InstanceIoTest, LoadMissingFileIsError) {
  const auto result = LoadInstance("/nonexistent/xcq/instance.xcqi");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().code(), StatusCode::kOk);
}

}  // namespace
}  // namespace xcq
