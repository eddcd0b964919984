#ifndef XCQ_INSTANCE_INSTANCE_H_
#define XCQ_INSTANCE_INSTANCE_H_

/// \file instance.h
/// σ-instances (Sec. 2.1): rooted DAGs whose vertices carry a sequence of
/// children and memberships in the schema's unary relations. Both the
/// original tree skeleton and all of its (partially) compressed versions
/// are instances; queries map instances to instances.
///
/// Representation notes:
///  * Child sequences are run-length encoded: consecutive occurrences of
///    the same child are one `Edge{child, count}` (Fig. 1 (c)). The paper
///    reports edge counts in this representation and we follow it.
///  * Edge lists live in one flat arena; each vertex owns a span. Query
///    operators rewrite spans in place (same length) or append fresh
///    spans (splits); `CompactEdges()` reclaims abandoned spans.
///  * Relations are columnar bitsets indexed by vertex id, so set
///    operations are word-parallel and a vertex split copies its bits in
///    O(live relations).

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "xcq/instance/schema.h"
#include "xcq/util/bitset.h"
#include "xcq/util/result.h"

namespace xcq {

using VertexId = uint32_t;
inline constexpr VertexId kNoVertex = UINT32_MAX;

/// \brief Persistent hash-cons state for incremental re-minimization
/// (`MinimizeInPlace` in compress/minimize.h).
///
/// The full `Minimize` pass re-hashes every reachable vertex on every
/// call. This cache keeps the hash-cons table alive *inside the
/// instance* between passes: `table` maps a vertex-signature hash to the
/// canonical vertex carrying it, and `vertex_hash` remembers each
/// vertex's signature at insertion time (0 = not in the table) so stale
/// entries can be evicted without recomputing old signatures.
/// Signatures are derived from live relation *names* (not ids), so the
/// cache survives schema tombstone churn from per-query temporaries.
///
/// The cache is a plain value: copying an instance copies the cache,
/// which remains valid for the copy. `valid` is false until the first
/// seeding pass; `schema_fingerprint` detects live-relation-set changes
/// that invalidate every stored signature.
struct MinimizeCache {
  bool valid = false;
  uint64_t schema_fingerprint = 0;
  std::vector<uint64_t> vertex_hash;
  std::unordered_multimap<uint64_t, VertexId> table;

  void Invalidate() {
    valid = false;
    schema_fingerprint = 0;
    vertex_hash.clear();
    table.clear();
  }

  /// Rough heap footprint in bytes (counted by Instance::MemoryFootprint).
  size_t MemoryFootprint() const {
    return vertex_hash.capacity() * sizeof(uint64_t) +
           table.size() * (sizeof(std::pair<uint64_t, VertexId>) +
                           2 * sizeof(void*)) +
           table.bucket_count() * sizeof(void*);
  }
};

/// \brief A run of `count` consecutive edges to the same child.
struct Edge {
  VertexId child = kNoVertex;
  uint64_t count = 1;

  bool operator==(const Edge&) const = default;
};

/// \brief Memoized structural traversal of an instance, owned by
/// `Instance` and rebuilt lazily (docs/INTERNALS.md §8).
///
/// Every axis sweep, reachability count, and path-count decode starts
/// from the same derived data: the DFS post-order over the reachable
/// DAG, per-vertex heights with their height bands, and per-vertex
/// root-path counts. Before this cache each operator recomputed them
/// with a private `PostOrder()` walk — per *op*, which dominates short
/// queries. The cache computes each section once per structural
/// generation: any mutation of vertices, edges, or the root bumps
/// `Instance::structure_generation()` and the next `EnsureTraversal`
/// rebuilds. Relation-column writes (selections) do not invalidate.
///
/// Sections are filled on demand: `order` + `reachable_edges` always,
/// heights/bands and path counts only when a caller asks (each costs
/// one extra pass over the order). References returned by
/// `EnsureTraversal` are stable until the next rebuild — callers that
/// mutate the instance while iterating must copy first (the kernels
/// snapshot by holding the reference across a generation they know is
/// stale only for *later* readers; see docs/INTERNALS.md §9.5).
struct TraversalCache {
  static constexpr uint32_t kNoHeight = UINT32_MAX;

  /// Reachable vertices, children before parents (DFS post-order).
  std::vector<VertexId> order;
  /// RLE edges over the reachable vertices.
  uint64_t reachable_edges = 0;

  /// height[v] = longest path to a leaf for reachable v; kNoHeight for
  /// unreachable ids. Leaves are 0; the root is the unique maximum.
  bool has_heights = false;
  std::vector<uint32_t> height;
  /// bands[h] = reachable vertices of height h, in post-order position.
  std::vector<std::vector<VertexId>> bands;

  /// path_counts[v] = number of root paths to v (saturating), the
  /// decoding weights of Sec. 2.1; 0 for unreachable ids.
  bool has_path_counts = false;
  std::vector<uint64_t> path_counts;

  /// Structure generation this cache was built at (0 = never built).
  uint64_t generation = 0;

  size_t MemoryFootprint() const {
    size_t bytes = order.capacity() * sizeof(VertexId) +
                   height.capacity() * sizeof(uint32_t) +
                   path_counts.capacity() * sizeof(uint64_t) +
                   bands.capacity() * sizeof(std::vector<VertexId>);
    for (const std::vector<VertexId>& band : bands) {
      bytes += band.capacity() * sizeof(VertexId);
    }
    return bytes;
  }
};

/// \brief Path summary: the trie of distinct root-to-label paths of the
/// tree `T(I)`, with the vertex slices realizing each path — the second
/// product of the traversal-cache family (docs/INTERNALS.md §9).
///
/// A *label* is the set of live, non-`xcq:` relations a vertex belongs
/// to (tags and string-pattern relations; result/temporary columns are
/// excluded because their bits change without a structure-generation
/// bump). A summary node stands for one distinct sequence of labels
/// from the root; `vertex_nodes` lists, per vertex, the nodes whose
/// paths reach it. Splits change which vertex realizes which path but
/// never the path set itself (they preserve `T(I)`), so plan-side
/// admissible-path sets survive splits; only the vertex slices must be
/// rebuilt, which the structure generation triggers.
///
/// Validity = structure generation + a fingerprint of the live
/// non-`xcq:` relation set (ids and names): adding, removing, or
/// re-interning a label relation rebuilds. Corollary of the label
/// definition: callers must not hand-mutate the bits of a live named
/// non-`xcq:` relation on an unchanged structure (the compressor writes
/// them once; splits copy them; nothing else in the tree does).
///
/// Budget: the per-query abstract pass walks every trie node and each
/// region build scans every (vertex, path) realization, so a summary
/// pays only while it is smaller than the DAG a full sweep walks. A
/// build whose realization count exceeds the reachable vertices plus
/// reachable RLE edges stops early and marks the summary `saturated`:
/// it stays "built" for the generation (no rebuild storm) but carries
/// no nodes, and sweep pruning stands down to unfiltered sweeps.
/// TreeBank's deep recursive nesting is over budget at every measured
/// scale (1.1-1.6x V+E), where pruning loses to the full sweep; the
/// other corpora stay well within it.
struct PathSummary {
  static constexpr uint32_t kNoNode = UINT32_MAX;

  /// One distinct root-to-label path. Parents precede children in
  /// `nodes` (node 0 is the root's path), so a single ascending /
  /// descending index pass computes downward / upward closures.
  struct Node {
    uint32_t parent = kNoNode;
    uint32_t label = 0;  ///< Index into `labels`.
  };

  bool saturated = false;
  std::vector<Node> nodes;
  /// Interned label alphabet: each entry the sorted live non-`xcq:`
  /// relation ids of the vertices carrying it.
  std::vector<std::vector<RelationId>> labels;
  /// CSR: `vertex_nodes[vertex_begin[v] .. vertex_begin[v+1])` are the
  /// summary nodes vertex `v` realizes (empty for unreachable ids).
  std::vector<uint32_t> vertex_begin;
  std::vector<uint32_t> vertex_nodes;

  /// Structure generation this summary was built at (0 = never built).
  uint64_t generation = 0;
  /// Fingerprint of the live non-`xcq:` relation set at build time.
  uint64_t schema_fingerprint = 0;

  size_t MemoryFootprint() const {
    size_t bytes = nodes.capacity() * sizeof(Node) +
                   vertex_begin.capacity() * sizeof(uint32_t) +
                   vertex_nodes.capacity() * sizeof(uint32_t) +
                   labels.capacity() * sizeof(std::vector<RelationId>);
    for (const std::vector<RelationId>& label : labels) {
      bytes += label.capacity() * sizeof(RelationId);
    }
    return bytes;
  }
};

/// \brief Counters for the resident scratch-relation pool (per-op query
/// temporaries; see Instance::AcquireScratchRelation).
struct ScratchPoolStats {
  uint64_t acquires = 0;     ///< Total checkouts.
  uint64_t pool_hits = 0;    ///< Served from a resident column: no allocation.
  uint64_t allocations = 0;  ///< Column storage had to be (re)allocated.
  uint64_t releases = 0;     ///< Columns returned to the pool.
};

/// \brief A rooted DAG over a schema of unary relations.
class Instance {
 public:
  Instance() = default;

  // --- Vertices and edges -------------------------------------------------

  size_t vertex_count() const { return spans_.size(); }

  VertexId root() const { return root_; }
  void SetRoot(VertexId v) {
    if (root_ != v) InvalidateTraversal();
    root_ = v;
  }

  /// Appends a leaf vertex (no edges, no relation memberships).
  VertexId AddVertex();

  /// Replaces v's child sequence. The new sequence must be RLE-canonical
  /// (no two adjacent edges with the same child, all counts >= 1); use
  /// `AppendEdgeRle` to build such sequences incrementally.
  void SetEdges(VertexId v, std::span<const Edge> edges);

  /// Duplicates `v`: same child sequence, same memberships in every live
  /// relation. This is the "split" primitive of partial decompression.
  VertexId CloneVertex(VertexId v);

  /// The child runs of `v`, in order.
  std::span<const Edge> Children(VertexId v) const {
    return {edges_.data() + spans_[v].offset, spans_[v].length};
  }

  /// Mutable access for in-place child rewrites (length is fixed).
  /// Conservatively marks `v` dirty when dirty tracking is on and
  /// conservatively invalidates the traversal cache — callers take this
  /// span to rewrite edges.
  std::span<Edge> MutableChildren(VertexId v) {
    MarkVertexDirty(v);
    InvalidateTraversal();
    return {edges_.data() + spans_[v].offset, spans_[v].length};
  }

  bool IsLeaf(VertexId v) const { return spans_[v].length == 0; }

  /// Number of RLE edges currently owned by vertices (|E| of the paper).
  uint64_t rle_edge_count() const { return live_edge_count_; }

  /// Drops abandoned edge spans (after heavy splitting).
  void CompactEdges();

  // --- Relations -----------------------------------------------------------

  const Schema& schema() const { return schema_; }

  /// Id of `name`, interning and allocating an empty column if new.
  RelationId AddRelation(std::string_view name);

  /// Id of `name`, or kNoRelation.
  RelationId FindRelation(std::string_view name) const {
    return schema_.Find(name);
  }

  /// Drops a relation (its column becomes a tombstone). False if absent.
  bool RemoveRelation(std::string_view name);

  const DynamicBitset& RelationBits(RelationId r) const {
    return relations_[r];
  }
  DynamicBitset& MutableRelationBits(RelationId r) { return relations_[r]; }

  bool Test(RelationId r, VertexId v) const { return relations_[r].Test(v); }
  void SetBit(RelationId r, VertexId v) { relations_[r].Set(v); }
  void AssignBit(RelationId r, VertexId v, bool value) {
    relations_[r].Assign(v, value);
  }

  /// Live relation ids in id order (skips tombstones and scratch).
  std::vector<RelationId> LiveRelations() const;

  /// Named relations tombstoned over this instance's lifetime (the
  /// schema churn `bench_hotpath` requires to be zero per query).
  uint64_t tombstones_added() const { return tombstones_added_; }

  // --- Scratch-relation pool -----------------------------------------------
  //
  // Per-op query temporaries used to be named relations, interned into
  // the schema per evaluation and tombstoned right after — churn that
  // grew the schema, invalidated minimize-cache fingerprints, and
  // allocated a fresh column per op. The pool keeps a bounded set of
  // *anonymous* columns resident inside the instance instead: checked
  // out zeroed per op, returned at its last use, excluded from
  // LiveRelations / serialization / merges / signatures, but grown and
  // split-copied exactly like live columns while checked out (splits
  // must keep every in-flight selection consistent).

  /// Checks out a zeroed scratch column sized to vertex_count(). Serves
  /// a resident column when one is free (no allocation); falls back to
  /// allocating a new or evicted slot otherwise (counted, never fails).
  RelationId AcquireScratchRelation();

  /// Returns `r` to the pool. Up to `scratch_capacity()` columns stay
  /// resident (storage kept for the next checkout); beyond that the
  /// column's storage is released and the slot parked for reuse.
  void ReleaseScratchRelation(RelationId r);

  /// Resident-column cap for the pool (default 64 — comfortably above
  /// any compiled plan's op count times a realistic batch width).
  size_t scratch_capacity() const { return scratch_capacity_; }
  void set_scratch_capacity(size_t capacity) {
    scratch_capacity_ = capacity;
  }

  const ScratchPoolStats& scratch_stats() const { return scratch_stats_; }

  /// Schema slots currently backing scratch columns (any state).
  size_t scratch_slot_count() const {
    return scratch_active_ + scratch_free_.size() + scratch_parked_.size();
  }

  // --- Traversal helpers ---------------------------------------------------

  /// The memoized traversal (see TraversalCache), rebuilt if the
  /// structure changed since the last call; heights/bands and path
  /// counts are filled only when requested. The returned reference is
  /// stable until the next structural mutation *followed by* another
  /// EnsureTraversal call — callers that mutate while iterating must
  /// copy the sections they need first. Not thread-safe while it
  /// (re)builds: like all Instance mutation, first access after a
  /// structural change requires exclusive access.
  const TraversalCache& EnsureTraversal(bool need_heights = false,
                                        bool need_path_counts = false) const;

  /// Monotone counter bumped by every structural mutation; the cache is
  /// current iff EnsureTraversal().generation equals this.
  uint64_t structure_generation() const { return structure_generation_; }

  /// True when the next EnsureTraversal() is a pure read (no walk).
  bool traversal_cache_valid() const {
    return traversal_.generation == structure_generation_;
  }

  /// Full post-order walks performed so far (cache rebuilds). After
  /// warmup a steady-state query must not move this counter.
  uint64_t traversal_builds() const { return traversal_builds_; }

  /// The memoized path summary (see PathSummary), rebuilt when the
  /// structure or the live non-`xcq:` relation set changed since the
  /// last call. Same stability and thread-safety contract as
  /// EnsureTraversal: the reference survives until a mutation followed
  /// by another Ensure call, and a (re)build requires exclusive access.
  const PathSummary& EnsurePathSummary() const;

  /// True when the next EnsurePathSummary() is a pure read.
  bool path_summary_valid() const {
    return path_summary_.generation == structure_generation_ &&
           path_summary_.schema_fingerprint == LabelSchemaFingerprint();
  }

  /// Summary rebuilds so far (saturated builds included). After warmup
  /// a steady-state query must not move this counter.
  uint64_t path_summary_builds() const { return path_summary_builds_; }

  /// Fingerprint of the live non-`xcq:` relation set (ids and names) —
  /// the schema half of the path-summary validity check.
  uint64_t LabelSchemaFingerprint() const;

  /// Reachable vertices, parents before children (reverse DFS
  /// post-order). Served from the traversal cache (copied).
  std::vector<VertexId> TopologicalOrder() const;

  /// Reachable vertices, children before parents (DFS post-order).
  /// Always a fresh walk, bypassing the cache — this is the oracle the
  /// traversal-cache tests compare against; hot paths read
  /// EnsureTraversal() instead.
  std::vector<VertexId> PostOrder() const;

  /// Number of vertices reachable from the root (cache read).
  size_t ReachableCount() const { return EnsureTraversal().order.size(); }

  /// RLE edges over the reachable vertices only — the |E| the paper
  /// reports once split leftovers / merged-away garbage are excluded.
  uint64_t ReachableEdgeCount() const {
    return EnsureTraversal().reachable_edges;
  }

  // --- Dirty-vertex tracking (incremental re-minimization) -----------------
  //
  // When tracking is on, every structural change records the touched
  // vertex: `CloneVertex`/`AddVertex` mark the new vertex, `SetEdges`
  // marks on content change, `MutableChildren` marks conservatively.
  // Callers mark relation-membership changes themselves (relation
  // columns are rewritten wholesale, so the instance cannot attribute
  // them). `MinimizeInPlace` consumes the set via TakeDirtyVertices().

  /// Turns dirty tracking on or off. The accumulated set is preserved
  /// across toggles; use TakeDirtyVertices() to drain it.
  void SetDirtyTracking(bool enabled) { track_dirty_ = enabled; }
  bool dirty_tracking() const { return track_dirty_; }

  /// Records `v` as structurally changed (no-op when tracking is off).
  void MarkVertexDirty(VertexId v) {
    if (!track_dirty_) return;
    if (dirty_flag_.size() < spans_.size()) {
      dirty_flag_.resize(spans_.size(), 0);
    }
    if (v >= dirty_flag_.size() || dirty_flag_[v]) return;
    dirty_flag_[v] = 1;
    dirty_list_.push_back(v);
  }

  /// Returns the accumulated dirty set (deduplicated, in first-marked
  /// order) and clears it.
  std::vector<VertexId> TakeDirtyVertices() {
    for (const VertexId v : dirty_list_) {
      if (v < dirty_flag_.size()) dirty_flag_[v] = 0;
    }
    return std::exchange(dirty_list_, {});
  }

  size_t dirty_count() const { return dirty_list_.size(); }

  /// Persistent hash-cons state for `MinimizeInPlace` (see MinimizeCache).
  MinimizeCache& minimize_cache() { return minimize_cache_; }
  const MinimizeCache& minimize_cache() const { return minimize_cache_; }

  // --- Integrity -----------------------------------------------------------

  /// Checks structural invariants: valid ids, RLE canonical form,
  /// acyclicity, root in range, relation columns sized to vertex_count.
  /// The structural part is memoized on the structure generation (the
  /// key of the traversal cache), so a second call on an unchanged
  /// structure checks only the column sizes; any structural mutation
  /// re-arms the full check. Same thread-safety contract as
  /// EnsureTraversal: the first call after a structural change requires
  /// exclusive access.
  Status Validate() const;

  /// Estimated heap footprint in bytes (for the experiment reports).
  size_t MemoryFootprint() const;

 private:
  struct EdgeSpan {
    uint64_t offset = 0;
    uint32_t length = 0;
  };

  /// Per-column state, parallel to relations_. Dead columns stay empty
  /// and are skipped by vertex-growth operations; every other state is
  /// grown (and split-copied) with the vertex array. Only kLive columns
  /// are visible to LiveRelations().
  enum RelationState : uint8_t {
    kRelationDead = 0,     ///< Tombstone or parked scratch slot (empty).
    kRelationLive = 1,     ///< Named relation.
    kRelationScratch = 2,  ///< Checked-out scratch column.
    kRelationIdle = 3,     ///< Resident pooled column awaiting checkout.
  };

  void InvalidateTraversal() { ++structure_generation_; }

  Schema schema_;
  std::vector<EdgeSpan> spans_;
  std::vector<Edge> edges_;
  std::vector<DynamicBitset> relations_;
  std::vector<uint8_t> relation_state_;
  VertexId root_ = kNoVertex;
  uint64_t live_edge_count_ = 0;
  uint64_t tombstones_added_ = 0;

  /// Scratch pool: ids of resident idle columns (storage kept) and of
  /// parked dead slots (storage released, reusable with a realloc).
  std::vector<RelationId> scratch_free_;
  std::vector<RelationId> scratch_parked_;
  size_t scratch_active_ = 0;
  size_t scratch_capacity_ = 64;
  ScratchPoolStats scratch_stats_;

  /// Traversal memoization (see TraversalCache). `mutable`: logically
  /// derived state filled in by const readers.
  uint64_t structure_generation_ = 1;
  mutable TraversalCache traversal_;
  mutable uint64_t traversal_builds_ = 0;
  mutable PathSummary path_summary_;
  mutable uint64_t path_summary_builds_ = 0;
  /// Structure generation whose structural Validate() passed (0 = none).
  mutable uint64_t validated_generation_ = 0;

  bool track_dirty_ = false;
  /// Parallel to spans_ (grown lazily): 1 for vertices in dirty_list_.
  std::vector<uint8_t> dirty_flag_;
  std::vector<VertexId> dirty_list_;
  MinimizeCache minimize_cache_;
};

/// \brief Appends `edge` to an RLE sequence, merging with the last run if
/// it has the same child.
inline void AppendEdgeRle(std::vector<Edge>* edges, Edge edge) {
  if (!edges->empty() && edges->back().child == edge.child) {
    edges->back().count += edge.count;
  } else {
    edges->push_back(edge);
  }
}

}  // namespace xcq

#endif  // XCQ_INSTANCE_INSTANCE_H_
