#ifndef XCQ_COMPRESS_MINIMIZE_H_
#define XCQ_COMPRESS_MINIMIZE_H_

/// \file minimize.h
/// Movement inside the lattice of bisimilarity relations (Sec. 2.2).
///
/// Every class of equivalent instances forms a lattice whose maximum is
/// the tree-instance T(I) and whose minimum is the unique minimal
/// instance M(I). `Minimize` maps any instance to M(I) without
/// decompressing; `InstanceFromTree` produces the maximum element from a
/// labeled tree (used by tests and the uncompressed baseline).
///
/// Two minimization passes exist, and both reach the same M(I):
///  * `Minimize` — rebuilds a fresh, compact instance.
///  * `MinimizeInPlace` — folds duplicates into their canonical vertex
///    inside the instance itself (the post-query reclaim of
///    `QuerySession`), leaving merged-away vertices as unreachable
///    garbage until it compacts through `Minimize`. Stateless: each call
///    hash-conses every reachable vertex once, O(reachable |V| + |E|
///    + live relations).
/// See docs/INTERNALS.md for the algorithm and a worked example.

#include <string>
#include <vector>

#include "xcq/instance/instance.h"
#include "xcq/tree/tree_builder.h"
#include "xcq/util/cancel.h"
#include "xcq/util/result.h"

namespace xcq {

/// \brief Computes the minimal instance equivalent to `input`
/// (Prop. 2.5/2.6): hash-consing over the reachable vertices in
/// children-first order. Unreachable vertices are dropped; live relations
/// are preserved by name.
Result<Instance> Minimize(const Instance& input);

/// \brief Counters reported by one `MinimizeInPlace` call.
struct InPlaceMinimizeStats {
  bool compacted = false;  ///< Garbage passed half the vertex array.
  uint64_t merged = 0;     ///< Vertices folded into an existing one.
  uint64_t reachable_vertices = 0;  ///< After the pass.
  uint64_t reachable_edges = 0;     ///< RLE edges after the pass.
  double seconds = 0.0;
};

/// \brief Re-minimizes `*instance` in place: one children-first walk
/// over the cached post-order re-points each vertex's child runs at
/// canonical vertices and hash-conses it into a pass-local table keyed
/// by its live-relation memberships and child runs.
///
/// Equivalent to `Minimize` on the reachable part: after the call the
/// reachable subgraph is the minimal instance M(I). Merged vertices
/// linger unreachable until they are more than half of the vertex
/// array; the pass then compacts through one `Minimize` rebuild.
///
/// `cancel` (borrowed, may be null) is polled on entry and every 4096
/// vertices. A cancelled pass returns the token's status with the
/// instance structurally consistent: every merge already applied is
/// tree-preserving, and the next pass finishes the job.
Status MinimizeInPlace(Instance* instance,
                       const CancelToken* cancel = nullptr,
                       InPlaceMinimizeStats* stats = nullptr);

/// \brief Builds the (uncompressed) tree-instance of a labeled tree:
/// one vertex per tree node, no sharing.
///
/// Relations: in kAllTags mode one per distinct tag; in kSchema mode one
/// per listed tag; plus one `str:` relation per pattern of the
/// `LabeledTree`. Minimizing the result equals the streaming compressor's
/// output on the same document — a property the tests rely on.
struct TreeInstanceOptions {
  bool all_tags = true;
  /// Tags to label when `all_tags` is false.
  std::vector<std::string> tags;
};

Result<Instance> InstanceFromTree(const LabeledTree& labeled,
                                  const TreeInstanceOptions& options = {});

}  // namespace xcq

#endif  // XCQ_COMPRESS_MINIMIZE_H_
