#ifndef XCQ_COMPRESS_DAG_BUILDER_H_
#define XCQ_COMPRESS_DAG_BUILDER_H_

/// \file dag_builder.h
/// Hash-consing construction of minimal DAG instances (Sec. 2.2).
///
/// The builder maintains "a hash table of nodes previously inserted into
/// the compressed instance" (the paper's words): `Intern` is called
/// bottom-up — a vertex only after all its children — and returns either
/// an existing vertex with identical labels and child sequence or a fresh
/// one. Because two vertices with equal labels and pairwise-identified
/// equal children are bisimilar, the resulting instance is the *minimal*
/// instance of its equivalence class (Prop. 2.5), and each Intern costs
/// amortized O(labels + children) (Prop. 2.6).

#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "xcq/instance/instance.h"
#include "xcq/util/result.h"

namespace xcq {

/// \brief Bottom-up interning builder for minimal instances.
class DagBuilder {
 public:
  /// `expected_vertices` pre-sizes the hash-cons table (in full — a
  /// rehash re-buckets everything) and a fraction of the record / label
  /// / edge arenas (amortized doubling covers the rest, so a hint that
  /// overshoots on text-heavy documents wastes little). The compressor
  /// sizes it from the input byte count (a markup element costs tens of
  /// bytes of text, and distinct vertices never exceed elements). 0
  /// keeps the small default.
  explicit DagBuilder(size_t expected_vertices = 0);

  // The hash-table functors capture `this`; the builder must stay put.
  DagBuilder(const DagBuilder&) = delete;
  DagBuilder& operator=(const DagBuilder&) = delete;
  DagBuilder(DagBuilder&&) = delete;
  DagBuilder& operator=(DagBuilder&&) = delete;

  /// Returns the canonical vertex with exactly these labels and children.
  ///
  /// \param labels  strictly increasing relation ids.
  /// \param edges   RLE-canonical child runs; every child id must have
  ///                been returned by an earlier Intern call.
  VertexId Intern(std::span<const RelationId> labels,
                  std::span<const Edge> edges);

  /// Number of distinct vertices interned so far.
  size_t vertex_count() const { return records_.size(); }

  /// Total RLE edges over all interned vertices.
  uint64_t rle_edge_count() const { return edges_.size(); }

  /// Moves the built DAG into an `Instance`. `relation_names[i]` names
  /// the relation whose id `i` was used in `Intern` label lists. The
  /// builder is left empty.
  Result<Instance> Finish(VertexId root,
                          const std::vector<std::string>& relation_names);

 private:
  struct Record {
    uint64_t hash = 0;
    uint32_t label_offset = 0;
    uint32_t label_length = 0;
    uint64_t edge_offset = 0;
    uint32_t edge_length = 0;
  };

  /// Sentinel id meaning "the staged candidate in the scratch buffers".
  static constexpr VertexId kStaged = kNoVertex;

  uint64_t HashOf(VertexId v) const;
  std::span<const RelationId> LabelsOf(VertexId v) const;
  std::span<const Edge> EdgesOf(VertexId v) const;

  struct VertexHash {
    const DagBuilder* builder;
    size_t operator()(VertexId v) const;
  };
  struct VertexEq {
    const DagBuilder* builder;
    bool operator()(VertexId a, VertexId b) const;
  };

  std::vector<Record> records_;
  std::vector<RelationId> labels_;
  std::vector<Edge> edges_;

  // Staged candidate (compared against by VertexHash/VertexEq when the
  // probed id is kStaged).
  uint64_t staged_hash_ = 0;
  std::span<const RelationId> staged_labels_;
  std::span<const Edge> staged_edges_;

  std::unordered_set<VertexId, VertexHash, VertexEq> interned_;
};

}  // namespace xcq

#endif  // XCQ_COMPRESS_DAG_BUILDER_H_
