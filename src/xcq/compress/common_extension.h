#ifndef XCQ_COMPRESS_COMMON_EXTENSION_H_
#define XCQ_COMPRESS_COMMON_EXTENSION_H_

/// \file common_extension.h
/// Reducts and common extensions (Sec. 2.3, Lemma 2.7).
///
/// Two instances obtained from the same document but carrying different
/// labeling information (say, tag sets in one and string-match sets in
/// the other) are *compatible*; their *common extension* carries both
/// labelings at once. The construction is the product construction for
/// finite automata, built lazily over reachable state pairs only, so the
/// running time is linear in the size of the *output* — at worst the
/// uncompressed tree, in practice barely larger than the inputs.

#include <string_view>

#include "xcq/instance/instance.h"
#include "xcq/util/result.h"

namespace xcq {

struct CommonExtensionOptions {
  /// Abort with kResourceExhausted past this many product vertices.
  uint64_t max_vertices = 100'000'000;
};

/// \brief Computes a common extension of `a` and `b`.
///
/// Fails with `kIncompatible` if the instances do not describe the same
/// tree, or if a relation name they share disagrees on any paired vertex
/// (i.e. the shared reducts are not equivalent). The lazy product is
/// the least upper bound in the bisimilarity lattice, which may not be
/// minimal for the union schema; `Minimize` it when that matters.
Result<Instance> CommonExtension(const Instance& a, const Instance& b,
                                 const CommonExtensionOptions& options = {});

/// \brief The σ'-reduct I|σ' (Sec. 2.3): same DAG, only the relations
/// whose names appear in `keep`. Unknown names are ignored.
Instance Reduct(const Instance& instance,
                const std::vector<std::string>& keep);

}  // namespace xcq

#endif  // XCQ_COMPRESS_COMMON_EXTENSION_H_
