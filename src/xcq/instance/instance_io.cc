#include "xcq/instance/instance_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "xcq/util/string_util.h"
#include "xcq/xml/sax_parser.h"

namespace xcq {

namespace {

constexpr char kMagic[4] = {'X', 'C', 'Q', 'I'};
constexpr uint32_t kVersion = 1;

/// End-of-file magic of the checksum footer. Distinct from the header
/// magic so a truncated-to-prefix file can never look footered.
constexpr char kFooterMagic[4] = {'X', 'C', 'Q', 'F'};
/// u32 crc | u64 payload_size | kFooterMagic.
constexpr size_t kFooterSize = 4 + 8 + 4;

constexpr size_t kMaxVarintBytes = 10;

/// Slicing-by-8 tables for the reflected IEEE polynomial: kCrc[0] is
/// the classic bytewise table, kCrc[k][i] the CRC of byte i followed by
/// k zero bytes, so eight table lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

/// Little-endian 32-bit load, independent of host byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

/// Cursor over an instance payload. Getters return false on running
/// out of input (or a malformed varint) and leave the reason in
/// error(); the caller turns it into one kCorruption status.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  /// One bounds computation per value: a varint is at most
  /// kMaxVarintBytes long, and the last of those may only carry bit 63.
  bool GetVarint(uint64_t* out) {
    if (pos_ < bytes_.size() &&
        static_cast<unsigned char>(bytes_[pos_]) < 0x80) {
      *out = static_cast<unsigned char>(bytes_[pos_++]);
      return true;
    }
    const auto* const start =
        reinterpret_cast<const unsigned char*>(bytes_.data()) + pos_;
    const auto* const end =
        start + std::min<size_t>(bytes_.size() - pos_, kMaxVarintBytes);
    uint64_t value = 0;
    int shift = 0;
    for (const unsigned char* p = start; p < end; shift += 7) {
      const uint64_t byte = *p++;
      if (shift == 63 && byte > 1) return Fail("varint overflow");
      value |= (byte & 0x7F) << shift;
      if (byte < 0x80) {
        pos_ += static_cast<size_t>(p - start);
        *out = value;
        return true;
      }
    }
    return Fail("truncated varint");
  }

  bool GetU32(uint32_t* out) {
    std::string_view bytes;
    if (!GetBytes(4, &bytes)) return false;
    std::memcpy(out, bytes.data(), 4);
    return true;
  }

  bool GetBytes(size_t n, std::string_view* out) {
    if (n > bytes_.size() - pos_) return Fail("truncated bytes");
    *out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return bytes_.size() - pos_; }
  Status error() const { return Status::Corruption(error_); }

 private:
  bool Fail(const char* why) {
    error_ = why;
    return false;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  const char* error_ = "";
};

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  static const CrcTables kCrc = MakeCrcTables();
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t n = bytes.size();
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
        kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = kCrc[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string SerializeInstance(const Instance& instance) {
  std::string out;
  out.append(kMagic, 4);
  PutU32(&out, kVersion);
  PutVarint(&out, instance.vertex_count());
  PutVarint(&out, instance.root() == kNoVertex ? 0 : instance.root() + 1);

  const std::vector<RelationId> live = instance.LiveRelations();
  PutVarint(&out, live.size());
  for (RelationId r : live) {
    const std::string& name = instance.schema().Name(r);
    PutVarint(&out, name.size());
    out.append(name);
  }

  for (VertexId v = 0; v < instance.vertex_count(); ++v) {
    const std::span<const Edge> children = instance.Children(v);
    PutVarint(&out, children.size());
    for (const Edge& e : children) {
      PutVarint(&out, e.child);
      PutVarint(&out, e.count);
    }
  }

  const size_t words = (instance.vertex_count() + 63) / 64;
  for (RelationId r : live) {
    const DynamicBitset& bits = instance.RelationBits(r);
    for (size_t w = 0; w < words; ++w) {
      PutU64(&out, w < bits.words().size() ? bits.words()[w] : 0);
    }
  }
  return out;
}

std::string SerializeInstanceChecksummed(const Instance& instance) {
  std::string out = SerializeInstance(instance);
  const uint32_t crc = Crc32(out);
  const uint64_t payload_size = out.size();
  PutU32(&out, crc);
  PutU64(&out, payload_size);
  out.append(kFooterMagic, 4);
  return out;
}

namespace {

bool HasFooter(std::string_view bytes) {
  return bytes.size() >= kFooterSize &&
         std::memcmp(bytes.data() + bytes.size() - 4, kFooterMagic, 4) == 0;
}

/// Decodes and validates a footer-less payload.
Result<Instance> DecodePayload(std::string_view bytes) {
  Reader reader(bytes);
  std::string_view magic;
  if (!reader.GetBytes(4, &magic)) return reader.error();
  if (std::memcmp(magic.data(), kMagic, 4) != 0) {
    return Status::Corruption("bad magic; not an xcq instance file");
  }
  uint32_t version = 0;
  if (!reader.GetU32(&version)) return reader.error();
  if (version != kVersion) {
    return Status::Corruption(
        StrFormat("unsupported instance format version %u", version));
  }

  uint64_t vertex_count = 0;
  uint64_t root_plus1 = 0;
  if (!reader.GetVarint(&vertex_count) || !reader.GetVarint(&root_plus1)) {
    return reader.error();
  }
  if (vertex_count > UINT32_MAX) {
    return Status::Corruption("vertex count exceeds 32-bit id space");
  }
  if (root_plus1 > vertex_count) {
    return Status::Corruption("root vertex out of range");
  }

  uint64_t relation_count = 0;
  if (!reader.GetVarint(&relation_count)) return reader.error();
  if (relation_count > 1u << 20) {
    return Status::Corruption("implausible relation count");
  }
  std::vector<std::string> names;
  names.reserve(relation_count);
  for (uint64_t i = 0; i < relation_count; ++i) {
    uint64_t len = 0;
    if (!reader.GetVarint(&len)) return reader.error();
    if (len > 1u << 16) return Status::Corruption("relation name too long");
    std::string_view name;
    if (!reader.GetBytes(len, &name)) return reader.error();
    names.emplace_back(name);
  }

  Instance instance;
  for (uint64_t v = 0; v < vertex_count; ++v) instance.AddVertex();
  std::vector<Edge> edges;
  for (uint64_t v = 0; v < vertex_count; ++v) {
    uint64_t runs = 0;
    if (!reader.GetVarint(&runs)) return reader.error();
    // Every run takes at least two bytes; bounding by the input left
    // keeps a corrupt count from allocating.
    if (runs > reader.remaining() / 2) {
      return Status::Corruption("implausible edge run count");
    }
    edges.resize(runs);
    for (Edge& edge : edges) {
      uint64_t child = 0;
      uint64_t count = 0;
      if (!reader.GetVarint(&child) || !reader.GetVarint(&count)) {
        return reader.error();
      }
      if (child >= vertex_count) {
        return Status::Corruption("edge child out of range");
      }
      if (count == 0) return Status::Corruption("zero edge multiplicity");
      edge = Edge{static_cast<VertexId>(child), count};
    }
    instance.SetEdges(static_cast<VertexId>(v), edges);
  }
  if (root_plus1 > 0) {
    instance.SetRoot(static_cast<VertexId>(root_plus1 - 1));
  }

  // Columns load a word at a time. SerializeInstance never sets a bit
  // past the last vertex, so one there means the file is corrupt.
  const size_t words = (vertex_count + 63) / 64;
  const uint64_t past_end =
      vertex_count % 64 == 0 ? 0 : ~uint64_t{0} << (vertex_count % 64);
  for (const std::string& name : names) {
    std::string_view column;
    if (!reader.GetBytes(words * 8, &column)) return reader.error();
    DynamicBitset& bits =
        instance.MutableRelationBits(instance.AddRelation(name));
    for (size_t w = 0; w < words; ++w) {
      uint64_t word = 0;
      std::memcpy(&word, column.data() + w * 8, 8);
      if (w + 1 == words && (word & past_end) != 0) {
        return Status::Corruption("relation bits set past the last vertex");
      }
      bits.OrWord(w, word);
    }
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes after instance data");
  }
  XCQ_RETURN_IF_ERROR(instance.Validate());
  return instance;
}

}  // namespace

Result<Instance> DeserializeInstance(std::string_view bytes) {
  return HasFooter(bytes) ? DeserializeInstanceChecksummed(bytes)
                          : DecodePayload(bytes);
}

Result<Instance> DeserializeInstanceChecksummed(std::string_view bytes) {
  if (!HasFooter(bytes)) {
    return Status::Corruption(
        "spill has no checksum footer (torn write or footer-less file)");
  }
  uint32_t crc = 0;
  uint64_t payload_size = 0;
  std::memcpy(&crc, bytes.data() + bytes.size() - kFooterSize, 4);
  std::memcpy(&payload_size, bytes.data() + bytes.size() - kFooterSize + 4, 8);
  if (payload_size != bytes.size() - kFooterSize) {
    return Status::Corruption(
        "spill footer payload size mismatch (torn write)");
  }
  const std::string_view payload = bytes.substr(0, payload_size);
  if (Crc32(payload) != crc) {
    return Status::Corruption("spill payload CRC mismatch");
  }
  return DecodePayload(payload);
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError(
        StrFormat("cannot open '%s': %s", tmp.c_str(), std::strerror(errno)));
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError(StrFormat("short write to '%s': %s", tmp.c_str(),
                                       std::strerror(err)));
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError(
        StrFormat("fsync '%s': %s", tmp.c_str(), std::strerror(err)));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::IoError(StrFormat("rename '%s' -> '%s': %s", tmp.c_str(),
                                     path.c_str(), std::strerror(err)));
  }
  // Persist the rename itself: fsync the containing directory.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

Status SaveInstance(const Instance& instance, const std::string& path) {
  return AtomicWriteFile(path, SerializeInstanceChecksummed(instance));
}

Result<Instance> LoadInstance(const std::string& path) {
  XCQ_ASSIGN_OR_RETURN(const std::string bytes,
                       xml::ReadFileToString(path));
  return DeserializeInstance(bytes);
}

}  // namespace xcq
