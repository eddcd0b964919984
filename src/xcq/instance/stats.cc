#include "xcq/instance/stats.h"

#include <limits>

namespace xcq {

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  const uint64_t sum = a + b;
  return sum < a ? std::numeric_limits<uint64_t>::max() : sum;
}

uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<uint64_t>::max() / b) {
    return std::numeric_limits<uint64_t>::max();
  }
  return a * b;
}

uint64_t TreeNodeCount(const Instance& instance) {
  if (instance.vertex_count() == 0 || instance.root() == kNoVertex) return 0;
  // subtree_nodes(v) = 1 + sum over runs (count * subtree_nodes(child)),
  // computed children-first over the cached order.
  std::vector<uint64_t> subtree(instance.vertex_count(), 0);
  for (VertexId v : instance.EnsureTraversal().order) {
    uint64_t total = 1;
    for (const Edge& e : instance.Children(v)) {
      total = SaturatingAdd(total, SaturatingMul(e.count, subtree[e.child]));
    }
    subtree[v] = total;
  }
  return subtree[instance.root()];
}

uint64_t TreeEdgeCount(const Instance& instance) {
  const uint64_t nodes = TreeNodeCount(instance);
  return nodes == 0 ? 0 : nodes - 1;
}

uint64_t ExpandedDagEdgeCount(const Instance& instance) {
  uint64_t total = 0;
  for (VertexId v = 0; v < instance.vertex_count(); ++v) {
    for (const Edge& e : instance.Children(v)) {
      total = SaturatingAdd(total, e.count);
    }
  }
  return total;
}

std::vector<uint64_t> PathCounts(const Instance& instance) {
  // Path counts depend only on structure, so they live in the traversal
  // cache; this returns a copy for callers that hold the vector across
  // mutations. Hot paths (SelectedTreeNodeCount below) read in place.
  return instance.EnsureTraversal(/*need_path_counts=*/true).path_counts;
}

uint64_t SelectedTreeNodeCount(const Instance& instance, RelationId r) {
  const std::vector<uint64_t>& paths =
      instance.EnsureTraversal(/*need_path_counts=*/true).path_counts;
  uint64_t total = 0;
  instance.RelationBits(r).ForEach([&](size_t v) {
    total = SaturatingAdd(total, paths[v]);
  });
  return total;
}

uint64_t SelectedDagNodeCount(const Instance& instance, RelationId r) {
  const std::vector<uint64_t>& paths =
      instance.EnsureTraversal(/*need_path_counts=*/true).path_counts;
  uint64_t total = 0;
  instance.RelationBits(r).ForEach([&](size_t v) {
    if (paths[v] > 0) ++total;
  });
  return total;
}

CompressionStats ComputeCompressionStats(const Instance& instance) {
  CompressionStats stats;
  const TraversalCache& t = instance.EnsureTraversal();
  stats.tree_nodes = TreeNodeCount(instance);
  stats.dag_vertices = t.order.size();
  // RLE edges over reachable vertices only (split leftovers and
  // never-linked scratch vertices do not represent document structure).
  stats.dag_rle_edges = t.reachable_edges;
  const uint64_t tree_edges = stats.tree_nodes > 0 ? stats.tree_nodes - 1 : 0;
  stats.edge_ratio =
      tree_edges == 0 ? 0.0
                      : static_cast<double>(stats.dag_rle_edges) /
                            static_cast<double>(tree_edges);
  return stats;
}

}  // namespace xcq
