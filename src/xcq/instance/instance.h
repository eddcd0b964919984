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
#include <utility>
#include <vector>

#include "xcq/instance/schema.h"
#include "xcq/util/bitset.h"
#include "xcq/util/result.h"

namespace xcq {

using VertexId = uint32_t;
inline constexpr VertexId kNoVertex = UINT32_MAX;

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
/// from the same derived data: a children-first order of the reachable
/// DAG and per-vertex root-path counts. Before this cache each operator
/// recomputed them with a private `PostOrder()` walk — per *op*, which
/// dominates short queries. The cache computes each section once per
/// structural generation: any mutation of vertices, edges, or the root
/// bumps `Instance::structure_generation()` and the next
/// `EnsureTraversal` rebuilds. Relation-column writes (selections) do
/// not invalidate.
///
/// `order` serves both sweep directions: children-first kernels walk it
/// front to back, parents-first kernels (downward axes, path counts)
/// back to front. Its contract is children first: every child of a
/// reachable vertex sits before it, so the reverse is a topological
/// order, and that is the only property a kernel relies on. A walk
/// fills it with the DFS post-order; an instance decoded from a spill
/// (`Instance::FromPostOrder`) adopts the file order 0..V-1 instead,
/// which for every spill the writer produces is that same post-order.
/// `order` + `reachable_edges` are always filled,
/// path counts only when a caller asks (one extra pass over the order),
/// the parent index only when an upward or downward sweep asks
/// (`Instance::EnsureParentIndex`).
/// References returned by `EnsureTraversal` are stable until the next
/// rebuild — callers that mutate the instance while iterating must copy
/// first (the kernels snapshot by holding the reference across a
/// generation they know is stale only for *later* readers; see
/// docs/INTERNALS.md §8.5).
struct TraversalCache {
  /// Reachable vertices, children before parents (see above).
  std::vector<VertexId> order;
  /// RLE edges over the reachable vertices.
  uint64_t reachable_edges = 0;

  /// path_counts[v] = number of root paths to v (saturating), the
  /// decoding weights of Sec. 2.1; 0 for unreachable ids.
  bool has_path_counts = false;
  std::vector<uint64_t> path_counts;

  /// The parent index, keyed by position in `order`: `position[v]` is
  /// v's index in `order` (kNoPosition for unreachable ids), and the
  /// parents of `order[p]` are at the positions
  /// `parents[parent_offsets[p], parent_offsets[p + 1])`, ascending, one
  /// entry per RLE edge into it.
  bool has_parents = false;
  std::vector<uint32_t> position;
  std::vector<uint32_t> parent_offsets;
  std::vector<uint32_t> parents;
  static constexpr uint32_t kNoPosition = UINT32_MAX;

  /// Structure generation this cache was built at (0 = never built).
  uint64_t generation = 0;

  size_t MemoryFootprint() const {
    return order.capacity() * sizeof(VertexId) +
           path_counts.capacity() * sizeof(uint64_t) +
           (position.capacity() + parent_offsets.capacity() +
            parents.capacity()) *
               sizeof(uint32_t);
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

  /// A run whose count is not 1, by its index into the child array.
  struct RunCount {
    uint32_t edge = 0;
    uint64_t count = 0;
  };

  /// Builds an instance from flat post-order arrays, the layout of the
  /// spill format (instance_io.h): vertex v's child runs are
  /// `children[offsets[v], offsets[v + 1])`, each of count 1 unless
  /// `counts` (ascending by edge) says otherwise, and the root is the
  /// last vertex. One linear pass checks the structure: offsets rise
  /// from 0 to `children.size()`, every child id is below its parent's
  /// (which rules out cycles, self-loops and out-of-range ids), runs are
  /// RLE-canonical, every listed count is at least 2 on an edge that
  /// exists, and every vertex but the root has a parent, so all are
  /// reachable. Any failure is `kCorruption`. The result has no
  /// relations yet; its structure counts as validated and its traversal
  /// cache already holds the order 0..V-1, so neither `Validate` nor the
  /// first `EnsureTraversal` walks it.
  static Result<Instance> FromPostOrder(std::span<const uint32_t> offsets,
                                        std::span<const uint32_t> children,
                                        std::span<const RunCount> counts);

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
  /// Conservatively invalidates the traversal cache — callers take this
  /// span to rewrite edges.
  std::span<Edge> MutableChildren(VertexId v) {
    InvalidateTraversal();
    return {edges_.data() + spans_[v].offset, spans_[v].length};
  }

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
  // grew the schema and allocated a fresh column per op. The pool keeps
  // a bounded set of *anonymous* columns resident inside the instance
  // instead: checked out zeroed per op, returned at its last use, excluded from
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
  /// structure changed since the last call; path counts are filled only
  /// when requested. The returned reference is
  /// stable until the next structural mutation *followed by* another
  /// EnsureTraversal call — callers that mutate while iterating must
  /// copy the sections they need first. Not thread-safe while it
  /// (re)builds: like all Instance mutation, first access after a
  /// structural change requires exclusive access.
  const TraversalCache& EnsureTraversal(bool need_path_counts = false) const;

  /// EnsureTraversal plus the parent index (TraversalCache::parents),
  /// built from the order on the first call per structure generation.
  /// Filling it is not a rebuild: `traversal_builds` does not move.
  /// Same reference and thread-safety contract as EnsureTraversal.
  const TraversalCache& EnsureParentIndex() const;

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

  /// Reachable vertices, parents before children (the cached order,
  /// reversed and copied).
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
  /// Structure generation whose structural Validate() passed (0 = none).
  mutable uint64_t validated_generation_ = 0;
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
