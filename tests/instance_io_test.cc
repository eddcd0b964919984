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

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

/// Appends the 16-byte footer (CRC, payload size, end magic) to a
/// payload, so a hand-built stream gets past the checksum and the
/// structural checks are what fire.
std::string WithFooter(const std::string& payload) {
  std::string out = payload;
  PutU32(&out, Crc32(payload));
  PutU64(&out, payload.size());
  out += "XCQF";
  return out;
}

/// The payload without its footer.
std::string PayloadOf(const std::string& file) {
  return file.substr(0, file.size() - 16);
}

/// A hand-crafted format-2 file: header, no relations unless
/// `relation_words` names one relation ("a") and its column, the
/// arrays, and a valid footer.
std::string Spill(const std::vector<uint32_t>& offsets,
                  const std::vector<uint32_t>& children,
                  const std::vector<std::pair<uint32_t, uint64_t>>& counts = {},
                  const std::vector<uint64_t>& relation_words = {}) {
  std::string out("XCQI");
  PutU32(&out, 2);
  PutU32(&out, static_cast<uint32_t>(offsets.size() - 1));  // V
  PutU32(&out, static_cast<uint32_t>(children.size()));     // E
  PutU32(&out, relation_words.empty() ? 0 : 1);
  if (!relation_words.empty()) {
    PutU32(&out, 1);
    out += "a";
  }
  for (const uint32_t offset : offsets) PutU32(&out, offset);
  for (const uint32_t child : children) PutU32(&out, child);
  PutU32(&out, static_cast<uint32_t>(counts.size()));
  for (const auto& [index, count] : counts) {
    PutU32(&out, index);
    PutU64(&out, count);
  }
  for (const uint64_t word : relation_words) PutU64(&out, word);
  return WithFooter(out);
}

/// Asserts that `bytes` decode to kCorruption whose message holds
/// `fragment`.
void ExpectCorruption(std::string_view bytes, std::string_view fragment) {
  const auto result = DeserializeInstance(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find(fragment), std::string::npos)
      << result.status().ToString();
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
  const std::string bytes = SerializeInstanceChecksummed(original);

  XCQ_ASSERT_OK_AND_ASSIGN(const Instance reloaded,
                           DeserializeInstance(bytes));
  XCQ_ASSERT_OK(reloaded.Validate());
  XCQ_ASSERT_OK_AND_ASSIGN(const bool equivalent,
                           AreEquivalent(original, reloaded));
  EXPECT_TRUE(equivalent);
  EXPECT_EQ(reloaded.vertex_count(), original.ReachableCount());
  EXPECT_EQ(reloaded.rle_edge_count(), original.ReachableEdgeCount());
  // Vertices are renumbered in post-order: the root comes last.
  EXPECT_EQ(reloaded.root(), reloaded.vertex_count() - 1);
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

TEST(InstanceIoTest, DecodedInstanceIsValidatedWithItsTraversalCached) {
  XCQ_ASSERT_OK_AND_ASSIGN(
      const Instance decoded,
      DeserializeInstance(SerializeInstanceChecksummed(CompressedBib())));
  EXPECT_TRUE(decoded.traversal_cache_valid());
  XCQ_ASSERT_OK(decoded.Validate());
  const TraversalCache& t = decoded.EnsureTraversal();
  EXPECT_EQ(decoded.traversal_builds(), 0u);
  ASSERT_EQ(t.order.size(), decoded.vertex_count());
  for (VertexId v = 0; v < decoded.vertex_count(); ++v) {
    EXPECT_EQ(t.order[v], v);
    for (const Edge& e : decoded.Children(v)) EXPECT_LT(e.child, v);
  }
  EXPECT_EQ(t.reachable_edges, decoded.rle_edge_count());
}

TEST(InstanceIoTest, WriterDropsUnreachableVertices) {
  // A split leaves the original vertex behind once nothing points at
  // it any more; the spill holds only what the root reaches.
  Instance instance = CompressedBib();
  const VertexId root = instance.root();
  const VertexId clone = instance.CloneVertex(root);
  instance.SetRoot(clone);
  instance.CloneVertex(clone);  // never linked
  ASSERT_EQ(instance.ReachableCount() + 2, instance.vertex_count());
  XCQ_ASSERT_OK_AND_ASSIGN(
      const Instance decoded,
      DeserializeInstance(SerializeInstanceChecksummed(instance)));
  EXPECT_EQ(decoded.vertex_count(), instance.ReachableCount());
  EXPECT_EQ(TreeNodeCount(decoded), TreeNodeCount(instance));
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
      DeserializeInstance(SerializeInstanceChecksummed(CompressedBib())));
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
          DeserializeInstance(SerializeInstanceChecksummed(CompressedBib()))
              .Value()));
  // "year" was never compressed in; with no source text the session must
  // refuse rather than silently answer from an absent relation.
  const Status status = loaded.Run("//paper[year]").status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("year"), std::string::npos);
  EXPECT_EQ(loaded.source_parse_count(), 0u);
}

TEST(InstanceIoTest, TruncatedAtEveryPrefixIsCorruption) {
  const std::string bytes = SerializeInstanceChecksummed(CompressedBib());
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
  std::string bytes = SerializeInstanceChecksummed(CompressedBib());
  bytes[0] = 'Y';
  ExpectCorruption(bytes, "magic");
}

TEST(InstanceIoTest, UnsupportedVersionIsCorruption) {
  std::string bytes = SerializeInstanceChecksummed(CompressedBib());
  bytes[4] = 99;  // version lives right after the 4-byte magic
  ExpectCorruption(bytes, "unsupported instance format version 99");
}

TEST(InstanceIoTest, TrailingBytesAreCorruption) {
  // Behind a valid footer, so the payload parse is what finds them.
  const std::string bytes = SerializeInstanceChecksummed(CompressedBib());
  ExpectCorruption(WithFooter(PayloadOf(bytes) + "junk"), "trailing bytes");
}

TEST(InstanceIoTest, HandBuiltSpillDecodes) {
  // The control for the corruption cases below: v0 a leaf, v1 the root
  // with one run of three edges to v0.
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance instance,
                           DeserializeInstance(Spill({0, 0, 1}, {0}, {{0, 3}})));
  EXPECT_EQ(instance.root(), 1u);
  ASSERT_EQ(instance.Children(1).size(), 1u);
  EXPECT_EQ(instance.Children(1)[0], (Edge{0, 3}));
  EXPECT_EQ(TreeNodeCount(instance), 4u);
}

TEST(InstanceIoTest, CycleIsCorruption) {
  // v0 → v1 → v0: the first edge already points upwards.
  ExpectCorruption(Spill({0, 1, 2}, {1, 0}), "not below it");
}

TEST(InstanceIoTest, SelfLoopIsCorruption) {
  ExpectCorruption(Spill({0, 1}, {0}), "not below it");
}

TEST(InstanceIoTest, ChildOutOfRangeIsCorruption) {
  ExpectCorruption(Spill({0, 0, 1}, {7}), "not below it");
}

TEST(InstanceIoTest, UnreachableVertexIsCorruption) {
  // v0 and v1 are leaves; the root v2 points at v1 only.
  ExpectCorruption(Spill({0, 0, 0, 1}, {1}), "vertex 0 is unreachable");
}

TEST(InstanceIoTest, NonMonotoneOffsetsAreCorruption) {
  // v2's span would run from edge 1 back to edge 0.
  ExpectCorruption(Spill({0, 0, 1, 0, 2}, {0, 1}), "not monotone");
}

TEST(InstanceIoTest, OffsetsNotEndingAtEdgeCountAreCorruption) {
  ExpectCorruption(Spill({0, 0, 0}, {0}), "edge offsets");
}

TEST(InstanceIoTest, AdjacentRunsOfOneChildAreCorruption) {
  ExpectCorruption(Spill({0, 0, 2}, {0, 0}), "not RLE-canonical");
}

TEST(InstanceIoTest, ExceptionIndexOutOfRangeIsCorruption) {
  ExpectCorruption(Spill({0, 0, 1}, {0}, {{1, 3}}), "out of range");
}

TEST(InstanceIoTest, ExceptionCountBelowTwoIsCorruption) {
  // A zero-count run, and a count of 1 that the writer never lists.
  ExpectCorruption(Spill({0, 0, 1}, {0}, {{0, 0}}), "below 2");
  ExpectCorruption(Spill({0, 0, 1}, {0}, {{0, 1}}), "below 2");
}

TEST(InstanceIoTest, ExceptionIndicesOutOfOrderAreCorruption) {
  ExpectCorruption(Spill({0, 0, 0, 2}, {0, 1}, {{1, 2}, {0, 2}}),
                   "out of order");
}

TEST(InstanceIoTest, ChecksummedRoundTrip) {
  const Instance original = CompressedBib();
  const std::string bytes = SerializeInstanceChecksummed(original);
  // Footer = crc32 | payload size | "XCQF", 16 bytes past the payload.
  EXPECT_EQ(bytes.substr(bytes.size() - 4), "XCQF");
  EXPECT_EQ(WithFooter(PayloadOf(bytes)), bytes);
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance reloaded,
                           DeserializeInstance(bytes));
  XCQ_ASSERT_OK(reloaded.Validate());
  EXPECT_EQ(reloaded.vertex_count(), original.ReachableCount());
  EXPECT_EQ(TreeNodeCount(reloaded), TreeNodeCount(original));
}

TEST(InstanceIoTest, ChecksummedTruncatedFooterIsCorruption) {
  const std::string bytes =
      SerializeInstanceChecksummed(CompressedBib());
  // Dropping any suffix of the footer destroys the end magic, and a
  // file without a footer is never read.
  for (size_t drop = 1; drop <= 15; ++drop) {
    const auto result = DeserializeInstance(
        std::string_view(bytes).substr(0, bytes.size() - drop));
    ASSERT_FALSE(result.ok()) << "dropped " << drop << " bytes";
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
        << "dropped " << drop << " bytes";
  }
}

TEST(InstanceIoTest, FooterlessPayloadIsCorruption) {
  ExpectCorruption(
      PayloadOf(SerializeInstanceChecksummed(CompressedBib())), "footer");
}

TEST(InstanceIoTest, ChecksummedPayloadFlipIsCrcMismatch) {
  std::string bytes = SerializeInstanceChecksummed(CompressedBib());
  for (const size_t pos : {size_t{9}, bytes.size() / 2, bytes.size() - 17}) {
    SCOPED_TRACE(pos);
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x40);
    ExpectCorruption(flipped, "CRC");
  }
}

TEST(InstanceIoTest, ChecksummedTornWriteIsSizeMismatch) {
  // A torn write that somehow kept the 16-byte footer but lost payload
  // bytes: the recorded payload size no longer matches.
  const std::string bytes =
      SerializeInstanceChecksummed(CompressedBib());
  const std::string torn = bytes.substr(0, bytes.size() / 2) +
                           bytes.substr(bytes.size() - 16);
  ExpectCorruption(torn, "torn");
}

TEST(InstanceIoTest, SaveInstanceWritesChecksummedFormat) {
  const std::string path =
      ::testing::TempDir() + "/instance_io_test_checksummed.xcqi";
  XCQ_ASSERT_OK(SaveInstance(CompressedBib(), path));
  std::string raw;
  XCQ_ASSERT_OK_AND_ASSIGN(raw, xml::ReadFileToString(path));
  ASSERT_GE(raw.size(), 20u);
  EXPECT_EQ(raw.substr(raw.size() - 4), "XCQF");
  EXPECT_EQ(InstanceFormatVersion(raw), kInstanceFormatVersion);
  // And no stray temp file from the atomic write.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

TEST(InstanceIoTest, FormatOneFixturesAreRejected) {
  // tests/data/v1_legacy_bib.xcqi (no footer) and v1_bib_footered.xcqi
  // are the bib example in the varint format 1. `.xcqi` is a same-host
  // cache: an older format is refused by name, not misread.
  for (const char* file : {"v1_legacy_bib.xcqi", "v1_bib_footered.xcqi"}) {
    SCOPED_TRACE(file);
    const auto result =
        LoadInstance(std::string(XCQ_TEST_DATA_DIR) + "/" + file);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(result.status().message(),
              "unsupported instance format version 1");
  }
}

TEST(InstanceIoTest, FormatTwoFixtureLoadsAndReserializesByteForByte) {
  // tests/data/v2_bib.xcqi is a checked-in SaveInstance output for
  // CompressedBib(). The on-disk format is frozen: the file must load,
  // and the writer must reproduce it byte for byte (payload, footer CRC
  // and size), from the compressed instance and from the decoded one.
  const std::string path = std::string(XCQ_TEST_DATA_DIR) + "/v2_bib.xcqi";
  XCQ_ASSERT_OK_AND_ASSIGN(const Instance loaded, LoadInstance(path));
  XCQ_ASSERT_OK_AND_ASSIGN(const std::string fixture,
                           xml::ReadFileToString(path));
  EXPECT_EQ(SerializeInstanceChecksummed(CompressedBib()), fixture);
  EXPECT_EQ(SerializeInstanceChecksummed(loaded), fixture);
  EXPECT_EQ(loaded.traversal_builds(), 0u);
}

TEST(InstanceIoTest, RelationBitsPastLastVertexAreCorruption) {
  // Two vertices, one relation: bits 0-1 are vertices, bit 2 is past
  // the end. The writer never sets it, so a file that does is corrupt.
  XCQ_ASSERT_OK_AND_ASSIGN(
      const Instance ok, DeserializeInstance(Spill({0, 0, 1}, {0}, {}, {0b11})));
  EXPECT_EQ(ok.RelationBits(ok.FindRelation("a")).Count(), 2u);
  ExpectCorruption(Spill({0, 0, 1}, {0}, {}, {0b111}), "past the last vertex");
}

TEST(InstanceIoTest, ChecksummedRelationBitsPastLastVertexAreCorruption) {
  // Same defect in a real spill behind a valid footer: the CRC is
  // recomputed over the damaged payload, so the structural check is
  // what must fire.
  const Instance bib = CompressedBib();
  ASSERT_NE(bib.ReachableCount() % 64, 0u);
  std::string payload = PayloadOf(SerializeInstanceChecksummed(bib));
  // The payload ends in the last relation's last word; all-ones sets
  // every bit past the vertex count.
  payload.replace(payload.size() - 8, 8, 8, '\xFF');
  ExpectCorruption(WithFooter(payload), "past the last vertex");
}

TEST(InstanceIoTest, DuplicateRelationNameIsCorruption) {
  // One relation "a" written twice: the count says 2, both names "a".
  const std::string good = PayloadOf(Spill({0, 0, 1}, {0}, {}, {0b11}));
  std::string payload = good.substr(0, 16);
  PutU32(&payload, 2);
  payload += good.substr(20, 5);  // u32 1, "a"
  payload += good.substr(20, 5);
  payload += good.substr(25);     // arrays and the first column
  PutU64(&payload, 0b01);         // the second column
  ExpectCorruption(WithFooter(payload), "duplicate relation");
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
