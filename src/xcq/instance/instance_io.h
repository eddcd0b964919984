#ifndef XCQ_INSTANCE_INSTANCE_IO_H_
#define XCQ_INSTANCE_INSTANCE_IO_H_

/// \file instance_io.h
/// Binary serialization of compressed instances.
///
/// The paper's motivating use is to keep skeletons of very large
/// documents resident in main memory; persisting the compressed instance
/// lets an application parse + compress once and reload the (small) DAG
/// afterwards. The format is a varint-compressed dump whose fixed-width
/// fields (u32 version, bitset words, footer) are written in host byte
/// order — `.xcqi` files are a same-host cache, not an interchange
/// format, and do not port between hosts of different endianness:
///
///   magic "XCQI" | u32 version | varint vertex_count | varint root
///   | varint relation_count | (name_len name_bytes)*      -- live schema
///   | per vertex: varint run_count, (varint child, varint count)*
///   | per relation: bitset words
///
/// Files written since the durable store landed carry a 16-byte
/// trailing footer so a half-written or bit-flipped spill is detected
/// before any of it is interpreted:
///
///   u32 crc32(payload) | u64 payload_size | end magic "XCQF"
///
/// (footer integers host-endian, matching the rest of the format).
///
/// `DeserializeInstance` accepts both forms: bytes ending in the footer
/// magic are checksum-verified first, anything else takes the legacy
/// footer-less path, so pre-footer `.xcqi` files keep loading.
/// `DeserializeInstanceChecksummed` requires the footer: the durable
/// store reads spills through it, so a spill cut back to a bare payload
/// is a corruption, not a legacy file.
///
/// `LoadInstance` validates everything (ids, acyclicity, RLE form, no
/// relation bit past the last vertex) before returning, so corrupt files
/// surface as `StatusCode::kCorruption`.

#include <string>

#include "xcq/instance/instance.h"
#include "xcq/util/result.h"

namespace xcq {

/// \brief CRC-32 (IEEE 802.3 polynomial) of `bytes`, computed eight
/// bytes per step (slicing-by-8); the value is the standard bytewise one.
uint32_t Crc32(std::string_view bytes);

/// \brief Serializes `instance` (live relations only) to bytes, without
/// a checksum footer. This is the legacy on-disk form; prefer
/// `SerializeInstanceChecksummed` for anything that touches a disk.
std::string SerializeInstance(const Instance& instance);

/// \brief Serializes `instance` and appends the CRC footer.
std::string SerializeInstanceChecksummed(const Instance& instance);

/// \brief Parses bytes produced by either Serialize variant. A present
/// footer is verified (size + CRC) before the payload is interpreted.
Result<Instance> DeserializeInstance(std::string_view bytes);

/// \brief Parses bytes produced by `SerializeInstanceChecksummed` only:
/// a missing footer is `kCorruption`, like a size or CRC mismatch.
Result<Instance> DeserializeInstanceChecksummed(std::string_view bytes);

/// \brief Crash-safe whole-file write: `bytes` goes to `path + ".tmp"`,
/// is fsync'd, and is atomically renamed over `path` (the containing
/// directory is fsync'd too). After a crash `path` holds either the old
/// or the new content, never a mix.
Status AtomicWriteFile(const std::string& path, std::string_view bytes);

/// \brief Serializes to a file: checksummed format, atomic write.
Status SaveInstance(const Instance& instance, const std::string& path);

/// \brief Loads and validates an instance file (either format).
Result<Instance> LoadInstance(const std::string& path);

}  // namespace xcq

#endif  // XCQ_INSTANCE_INSTANCE_IO_H_
