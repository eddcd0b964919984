#include "xcq/instance/instance_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <memory>

#include "xcq/util/string_util.h"
#include "xcq/xml/sax_parser.h"

namespace xcq {

namespace {

constexpr char kMagic[4] = {'X', 'C', 'Q', 'I'};

/// End-of-file magic of the checksum footer. Distinct from the header
/// magic so a truncated-to-prefix file can never look footered.
constexpr char kFooterMagic[4] = {'X', 'C', 'Q', 'F'};
/// u32 crc | u64 payload_size | kFooterMagic.
constexpr size_t kFooterSize = 4 + 8 + 4;
/// Bytes of one entry of the run-count exception list.
constexpr size_t kCountEntrySize = 4 + 8;

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

// Little-endian loads and stores, independent of host byte order (the
// compiler turns each into one move on a little-endian host).

uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

uint64_t LoadLe64(const unsigned char* p) {
  return uint64_t{LoadLe32(p)} | uint64_t{LoadLe32(p + 4)} << 32;
}

void StoreLe32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

void StoreLe64(char* p, uint64_t v) {
  StoreLe32(p, static_cast<uint32_t>(v));
  StoreLe32(p + 4, static_cast<uint32_t>(v >> 32));
}

void PutLe32(std::string* out, uint32_t v) {
  char buf[4];
  StoreLe32(buf, v);
  out->append(buf, 4);
}

/// Grows `out` by `n` bytes and returns where they start.
char* Extend(std::string* out, size_t n) {
  const size_t at = out->size();
  out->resize(at + n);
  return out->data() + at;
}

/// Bounds-checked cursor over the payload's fixed-width fields. A
/// failed take consumes nothing; the CRC has already passed, so running
/// short means the counts in the payload disagree with its size.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  /// The next `n` bytes, or nullptr when fewer are left.
  const unsigned char* Take(uint64_t n) {
    if (n > bytes_.size() - pos_) return nullptr;
    const auto* p =
        reinterpret_cast<const unsigned char*>(bytes_.data()) + pos_;
    pos_ += n;
    return p;
  }

  bool TakeU32(uint32_t* out) {
    const unsigned char* p = Take(4);
    if (p == nullptr) return false;
    *out = LoadLe32(p);
    return true;
  }

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

Status Truncated() {
  return Status::Corruption("truncated instance data");
}

/// Decodes a footer-verified payload whose header has been checked.
Result<Instance> DecodePayload(std::string_view payload) {
  Cursor in(payload.substr(kInstanceHeaderSize));
  uint32_t vertex_count = 0;
  uint32_t edge_count = 0;
  uint32_t relation_count = 0;
  if (!in.TakeU32(&vertex_count) || !in.TakeU32(&edge_count) ||
      !in.TakeU32(&relation_count)) {
    return Truncated();
  }
  if (vertex_count == kNoVertex) {
    return Status::Corruption("vertex count exceeds the 32-bit id space");
  }
  if (relation_count > 1u << 20) {
    return Status::Corruption("implausible relation count");
  }
  std::vector<std::string> names;
  names.reserve(std::min<size_t>(relation_count, in.remaining() / 4));
  for (uint32_t r = 0; r < relation_count; ++r) {
    uint32_t len = 0;
    if (!in.TakeU32(&len)) return Truncated();
    if (len == 0) return Status::Corruption("empty relation name");
    if (len > 1u << 16) return Status::Corruption("relation name too long");
    const unsigned char* name = in.Take(len);
    if (name == nullptr) return Truncated();
    names.emplace_back(reinterpret_cast<const char*>(name), len);
  }

  // Every array is bounds-checked before it is allocated, so a corrupt
  // count cannot allocate more than a small multiple of the input.
  const unsigned char* raw_offsets = in.Take((uint64_t{vertex_count} + 1) * 4);
  const unsigned char* raw_children = in.Take(uint64_t{edge_count} * 4);
  uint32_t count_entries = 0;
  if (raw_offsets == nullptr || raw_children == nullptr ||
      !in.TakeU32(&count_entries)) {
    return Truncated();
  }
  const unsigned char* raw_counts =
      in.Take(uint64_t{count_entries} * kCountEntrySize);
  if (raw_counts == nullptr) return Truncated();
  std::vector<uint32_t> offsets(size_t{vertex_count} + 1);
  for (size_t i = 0; i < offsets.size(); ++i) {
    offsets[i] = LoadLe32(raw_offsets + 4 * i);
  }
  std::vector<uint32_t> children(edge_count);
  for (size_t i = 0; i < children.size(); ++i) {
    children[i] = LoadLe32(raw_children + 4 * i);
  }
  std::vector<Instance::RunCount> counts(count_entries);
  for (size_t k = 0; k < counts.size(); ++k) {
    const unsigned char* entry = raw_counts + k * kCountEntrySize;
    counts[k] = {LoadLe32(entry), LoadLe64(entry + 4)};
  }
  XCQ_ASSIGN_OR_RETURN(Instance instance,
                       Instance::FromPostOrder(offsets, children, counts));

  // The writer never sets a bit past the last vertex, so one there
  // means the file is corrupt.
  const size_t words = (size_t{vertex_count} + 63) / 64;
  const uint64_t past_end =
      vertex_count % 64 == 0 ? 0 : ~uint64_t{0} << (vertex_count % 64);
  for (const std::string& name : names) {
    const unsigned char* column = in.Take(uint64_t{words} * 8);
    if (column == nullptr) return Truncated();
    if (instance.FindRelation(name) != kNoRelation) {
      return Status::Corruption(
          StrFormat("duplicate relation '%s'", name.c_str()));
    }
    DynamicBitset& bits =
        instance.MutableRelationBits(instance.AddRelation(name));
    for (size_t w = 0; w < words; ++w) {
      const uint64_t word = LoadLe64(column + w * 8);
      if (w + 1 == words && (word & past_end) != 0) {
        return Status::Corruption("relation bits set past the last vertex");
      }
      bits.OrWord(w, word);
    }
  }
  if (in.remaining() != 0) {
    return Status::Corruption("trailing bytes after instance data");
  }
  return instance;
}

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

uint32_t InstanceFormatVersion(std::string_view header) {
  if (header.size() < kInstanceHeaderSize ||
      std::memcmp(header.data(), kMagic, 4) != 0) {
    return 0;
  }
  return LoadLe32(reinterpret_cast<const unsigned char*>(header.data()) + 4);
}

std::string SerializeInstanceChecksummed(const Instance& instance) {
  // The cached order is children first, and so is the file: position
  // in it becomes the vertex id, and unreachable vertices get none.
  const TraversalCache& traversal = instance.EnsureTraversal();
  const std::vector<VertexId>& order = traversal.order;
  const auto vertex_count = static_cast<uint32_t>(order.size());
  const auto edge_count = static_cast<uint32_t>(traversal.reachable_edges);
  std::vector<VertexId> new_id(instance.vertex_count(), kNoVertex);
  for (uint32_t i = 0; i < vertex_count; ++i) new_id[order[i]] = i;

  const std::vector<RelationId> live = instance.LiveRelations();
  const size_t words = (size_t{vertex_count} + 63) / 64;
  std::string out;
  // Room for every run to carry a count entry: pages past the ones
  // written are never touched, and the string never reallocates.
  out.reserve(64 + 4 * (size_t{vertex_count} + 1) +
              (4 + kCountEntrySize) * size_t{edge_count} +
              8 * words * live.size() + kFooterSize);
  out.append(kMagic, 4);
  PutLe32(&out, kInstanceFormatVersion);
  PutLe32(&out, vertex_count);
  PutLe32(&out, edge_count);
  PutLe32(&out, static_cast<uint32_t>(live.size()));
  for (const RelationId r : live) {
    const std::string& name = instance.schema().Name(r);
    PutLe32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
  }

  // Offsets, child ids and the runs whose count is not 1 are written
  // in one pass. Every run's count entry is stored at `next`, which
  // moves past it only when the count is not 1: no branch on a count.
  char* const offsets = Extend(&out, 4 * (size_t{vertex_count} + 1) +
                                         4 * size_t{edge_count} + 4);
  char* const children = offsets + 4 * (size_t{vertex_count} + 1);
  const auto entries = std::make_unique_for_overwrite<char[]>(
      kCountEntrySize * (size_t{edge_count} + 1));
  char* next = entries.get();
  uint32_t edge = 0;
  for (uint32_t i = 0; i < vertex_count; ++i) {
    StoreLe32(offsets + 4 * size_t{i}, edge);
    for (const Edge& e : instance.Children(order[i])) {
      StoreLe32(children + 4 * size_t{edge}, new_id[e.child]);
      StoreLe32(next, edge);
      StoreLe64(next + 4, e.count);
      next += e.count != 1 ? kCountEntrySize : 0;
      ++edge;
    }
  }
  StoreLe32(offsets + 4 * size_t{vertex_count}, edge);
  const size_t entry_bytes = static_cast<size_t>(next - entries.get());
  StoreLe32(children + 4 * size_t{edge},
            static_cast<uint32_t>(entry_bytes / kCountEntrySize));
  out.append(entries.get(), entry_bytes);

  std::vector<uint64_t> column(words);
  for (const RelationId r : live) {
    std::fill(column.begin(), column.end(), 0);
    instance.RelationBits(r).ForEach([&](size_t v) {
      const VertexId id = new_id[v];
      if (id != kNoVertex) column[id >> 6] |= uint64_t{1} << (id & 63);
    });
    char* word = Extend(&out, 8 * words);
    for (const uint64_t bits : column) {
      StoreLe64(word, bits);
      word += 8;
    }
  }

  const uint32_t crc = Crc32(out);
  const uint64_t payload_size = out.size();
  char* const footer = Extend(&out, kFooterSize);
  StoreLe32(footer, crc);
  StoreLe64(footer + 4, payload_size);
  std::memcpy(footer + 12, kFooterMagic, 4);
  return out;
}

Result<Instance> DeserializeInstance(std::string_view bytes) {
  // The header goes first so that a file of another version says so,
  // whether or not it carries a footer.
  if (bytes.size() < kInstanceHeaderSize) {
    return Status::Corruption("truncated instance header");
  }
  const uint32_t version = InstanceFormatVersion(bytes);
  if (version == 0) {
    return Status::Corruption("bad magic; not an xcq instance file");
  }
  if (version != kInstanceFormatVersion) {
    return Status::Corruption(
        StrFormat("unsupported instance format version %u", version));
  }
  if (bytes.size() < kInstanceHeaderSize + kFooterSize ||
      std::memcmp(bytes.data() + bytes.size() - 4, kFooterMagic, 4) != 0) {
    return Status::Corruption(
        "instance has no checksum footer (torn write)");
  }
  const auto* footer = reinterpret_cast<const unsigned char*>(bytes.data()) +
                       bytes.size() - kFooterSize;
  const uint32_t crc = LoadLe32(footer);
  const uint64_t payload_size = LoadLe64(footer + 4);
  if (payload_size != bytes.size() - kFooterSize) {
    return Status::Corruption(
        "instance footer payload size mismatch (torn write)");
  }
  const std::string_view payload = bytes.substr(0, payload_size);
  if (Crc32(payload) != crc) {
    return Status::Corruption("instance payload CRC mismatch");
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
