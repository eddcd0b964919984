#ifndef XCQ_COMPRESS_COMPRESSOR_H_
#define XCQ_COMPRESS_COMPRESSOR_H_

/// \file compressor.h
/// One-pass construction of the minimal compressed instance from XML text
/// (Sec. 2.2 + Sec. 4 of the paper).
///
/// The compressor is a SAX handler that keeps "a stack for DAG nodes
/// under construction and a hash table of existing nodes already in the
/// compressed instance". When an element closes, its children are already
/// interned, so the redundancy check is a single hash probe. String
/// constraints are matched on the fly by the Aho–Corasick automaton and
/// become labels of the enclosing elements before those elements are
/// interned — so string-match information participates in the
/// bisimulation, exactly as the paper's query-specific instances require.
///
/// Label modes mirror the two rows of Fig. 6 plus the per-query setting
/// of Fig. 7:
///  * kNone    ("−"): bare structure, all tags erased.
///  * kAllTags ("+"): one relation per distinct tag.
///  * kSchema       : only the given tags and string patterns, i.e. the
///                    information a specific query needs.

#include <string>
#include <string_view>
#include <vector>

#include "xcq/instance/instance.h"
#include "xcq/util/result.h"

namespace xcq {

/// \brief Which node labels the compressed instance carries.
enum class LabelMode {
  kNone,
  kAllTags,
  kSchema,
};

/// \brief Compression configuration.
struct CompressOptions {
  LabelMode mode = LabelMode::kAllTags;
  /// Tags to track (kSchema mode only).
  std::vector<std::string> tags;
  /// String constraints to match (<= 64). The resulting relations are
  /// named `Schema::StringRelationName(pattern)`.
  std::vector<std::string> patterns;
};

/// \brief Parses `xml` and returns its minimal compressed instance.
///
/// The instance's root is the synthetic `#doc` vertex above the document
/// element (labeled with relation "#doc" in kAllTags mode, or when
/// "#doc" is listed in `options.tags`).
Result<Instance> CompressXml(std::string_view xml,
                             const CompressOptions& options = {});

/// \brief Statistics of the most interesting intermediate quantities,
/// returned alongside the instance by `CompressXmlWithStats`.
struct CompressRunStats {
  uint64_t tree_nodes = 0;     ///< Skeleton nodes seen (incl. #doc).
  uint64_t text_bytes = 0;     ///< Character-data bytes fed to matching.
  uint64_t pattern_hits = 0;   ///< Pattern occurrences reported.
  double parse_seconds = 0.0;  ///< Wall time of the parse+compress pass.
  /// Vertex-count hint the pass's DagBuilder hash-cons table was
  /// reserved for, derived from the input byte count (0 = default small
  /// table).
  uint64_t dag_reserve = 0;
};

Result<Instance> CompressXmlWithStats(std::string_view xml,
                                      const CompressOptions& options,
                                      CompressRunStats* stats);

}  // namespace xcq

#endif  // XCQ_COMPRESS_COMPRESSOR_H_
