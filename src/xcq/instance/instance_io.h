#ifndef XCQ_INSTANCE_INSTANCE_IO_H_
#define XCQ_INSTANCE_INSTANCE_IO_H_

/// \file instance_io.h
/// Binary serialization of compressed instances.
///
/// The paper's motivating use is to keep skeletons of very large
/// documents resident in main memory; persisting the compressed instance
/// lets an application parse + compress once and reload the (small) DAG
/// afterwards. `.xcqi` is a same-host cache, not an interchange format:
/// an older format version is refused, not converted.
///
/// Format version 2 is flat fixed-width arrays, every integer little
/// endian. Vertices are renumbered in DFS post-order from the root, so
/// every child id is below its parent's and the root is the last
/// vertex; vertices the root cannot reach (split leftovers) are not
/// written. With V vertices, E RLE edges and R live relations:
///
///   "XCQI" | u32 version = 2 | u32 V | u32 E
///   | u32 R | (u32 name_len, name bytes) * R   -- the live schema
///   | u32 offsets[V + 1]                       -- v's runs: [offsets[v],
///                                              --   offsets[v + 1])
///   | u32 child[E]                             -- child id of each run
///   | u32 X | (u32 run, u64 count) * X         -- runs whose count is
///                                              --   not 1, ascending
///   | per relation: u64 words[ceil(V / 64)]    -- bit i = vertex i
///   | u32 crc32(payload) | u64 payload_size | "XCQF"   -- the footer
///
/// The footer detects a half-written or bit-flipped file before any of
/// it is interpreted. Decoding is bulk copies plus one linear pass
/// (`Instance::FromPostOrder`) that checks what `Instance::Validate`
/// would and leaves the instance validated with its traversal cache
/// filled. Every failure, a wrong version included, is
/// `StatusCode::kCorruption`.

#include <string>

#include "xcq/instance/instance.h"
#include "xcq/util/result.h"

namespace xcq {

/// \brief CRC-32 (IEEE 802.3 polynomial) of `bytes`, computed eight
/// bytes per step (slicing-by-8); the value is the standard bytewise one.
uint32_t Crc32(std::string_view bytes);

/// \brief The format version `DeserializeInstance` reads and
/// `SerializeInstanceChecksummed` writes.
inline constexpr uint32_t kInstanceFormatVersion = 2;

/// \brief Bytes of the `.xcqi` header: the magic and the u32 version.
inline constexpr size_t kInstanceHeaderSize = 8;

/// \brief The format version in `header`, the first bytes of an `.xcqi`
/// image; 0 when they are not a complete header starting with the magic.
uint32_t InstanceFormatVersion(std::string_view header);

/// \brief Serializes the reachable part of `instance` (live relations
/// only) and appends the CRC footer. Reads the traversal cache, so it
/// has `Instance::EnsureTraversal`'s thread-safety contract.
std::string SerializeInstanceChecksummed(const Instance& instance);

/// \brief Parses bytes produced by `SerializeInstanceChecksummed`. The
/// header's version is checked first, then the footer (size + CRC),
/// then the payload.
Result<Instance> DeserializeInstance(std::string_view bytes);

/// \brief Crash-safe whole-file write: `bytes` goes to `path + ".tmp"`,
/// is fsync'd, and is atomically renamed over `path` (the containing
/// directory is fsync'd too). After a crash `path` holds either the old
/// or the new content, never a mix.
Status AtomicWriteFile(const std::string& path, std::string_view bytes);

/// \brief Serializes to a file: checksummed format, atomic write.
Status SaveInstance(const Instance& instance, const std::string& path);

/// \brief Loads and validates an instance file.
Result<Instance> LoadInstance(const std::string& path);

}  // namespace xcq

#endif  // XCQ_INSTANCE_INSTANCE_IO_H_
