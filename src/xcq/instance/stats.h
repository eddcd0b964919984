#ifndef XCQ_INSTANCE_STATS_H_
#define XCQ_INSTANCE_STATS_H_

/// \file stats.h
/// Measurements over instances that the paper's tables report:
/// vertex / edge counts (Fig. 6), the number of *tree* nodes an instance
/// or a selection represents (Fig. 7 columns 7–8), and structural
/// statistics. Tree-node counts are computed by DAG arithmetic — no
/// decompression — and saturate at UINT64_MAX, since compression can be
/// doubly exponential with edge multiplicities (Sec. 3.4).

#include <cstdint>
#include <vector>

#include "xcq/instance/instance.h"

namespace xcq {

/// Saturating arithmetic helpers (public for tests).
uint64_t SaturatingAdd(uint64_t a, uint64_t b);
uint64_t SaturatingMul(uint64_t a, uint64_t b);

/// \brief Number of edges in the fully expanded (tree) view, i.e. the sum
/// of all edge multiplicities along all paths; saturating.
/// Equivalently `TreeNodeCount(i) - 1` for non-empty instances.
uint64_t TreeEdgeCount(const Instance& instance);

/// \brief Number of nodes of the unique equivalent tree T(I) (Prop. 2.2);
/// saturating.
uint64_t TreeNodeCount(const Instance& instance);

/// \brief Sum of edge-run multiplicities over live spans (the edge count
/// of the multiplicity-free DAG of Fig. 1 (b)); saturating.
uint64_t ExpandedDagEdgeCount(const Instance& instance);

/// \brief For each vertex, the number of edge-paths from the root
/// (|Π(v)|, Sec. 2.1) — i.e. how many tree nodes the vertex represents.
/// Unreachable vertices get 0; saturating.
std::vector<uint64_t> PathCounts(const Instance& instance);

/// \brief Number of tree nodes represented by the vertices in relation
/// `r` (Fig. 7 column 8: "#nodes sel. (tree)"); saturating.
uint64_t SelectedTreeNodeCount(const Instance& instance, RelationId r);

/// \brief Number of vertices in relation `r` that are reachable from the
/// root (Fig. 7 column 7: "#nodes sel. (dag)"). Unreachable split
/// leftovers are excluded, matching what decompression would see.
uint64_t SelectedDagNodeCount(const Instance& instance, RelationId r);

/// \brief Compression summary for one instance (one row of Fig. 6).
struct CompressionStats {
  uint64_t tree_nodes = 0;      ///< |V^T|
  uint64_t dag_vertices = 0;    ///< |V^{M(T)}| (reachable)
  uint64_t dag_rle_edges = 0;   ///< |E^{M(T)}| with multiplicity runs
  double edge_ratio = 0.0;      ///< |E^M| / |E^T|
};

CompressionStats ComputeCompressionStats(const Instance& instance);

}  // namespace xcq

#endif  // XCQ_INSTANCE_STATS_H_
