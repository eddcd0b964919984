#include "xcq/instance/instance.h"

#include <algorithm>

#include "xcq/instance/stats.h"
#include "xcq/util/string_util.h"

namespace xcq {

VertexId Instance::AddVertex() {
  const VertexId id = static_cast<VertexId>(spans_.size());
  spans_.push_back(EdgeSpan{});
  for (size_t r = 0; r < relations_.size(); ++r) {
    if (relation_state_[r] != kRelationDead) relations_[r].PushBack(false);
  }
  MarkVertexDirty(id);
  InvalidateTraversal();
  return id;
}

void Instance::SetEdges(VertexId v, std::span<const Edge> edges) {
  // The input may alias this instance's own edge arena (e.g. a caller
  // passing another vertex's Children()); reallocation or in-place reuse
  // would then corrupt the source, so detach aliased inputs first.
  const bool aliased = !edges_.empty() && !edges.empty() &&
                       edges.data() >= edges_.data() &&
                       edges.data() < edges_.data() + edges_.size();
  std::vector<Edge> detached;
  if (aliased) {
    detached.assign(edges.begin(), edges.end());
    edges = detached;
  }
  {
    // No-op rewrites (common when kernels re-emit unchanged lists) keep
    // the traversal cache valid and the vertex clean.
    const std::span<const Edge> current{edges_.data() + spans_[v].offset,
                                        spans_[v].length};
    if (current.size() == edges.size() &&
        std::equal(current.begin(), current.end(), edges.begin())) {
      return;
    }
    MarkVertexDirty(v);
    InvalidateTraversal();
  }
  live_edge_count_ -= spans_[v].length;
  if (edges.size() <= spans_[v].length) {
    // Reuse the existing span in place.
    std::copy(edges.begin(), edges.end(), edges_.begin() + spans_[v].offset);
    spans_[v].length = static_cast<uint32_t>(edges.size());
  } else {
    spans_[v].offset = edges_.size();
    spans_[v].length = static_cast<uint32_t>(edges.size());
    edges_.insert(edges_.end(), edges.begin(), edges.end());
  }
  live_edge_count_ += spans_[v].length;
}

VertexId Instance::CloneVertex(VertexId v) {
  const VertexId id = static_cast<VertexId>(spans_.size());
  // Deep-copy the edge span: the clone's children may later be rewritten
  // independently of the original's.
  const EdgeSpan src = spans_[v];
  EdgeSpan dst;
  dst.offset = edges_.size();
  dst.length = src.length;
  edges_.insert(edges_.end(), edges_.begin() + src.offset,
                edges_.begin() + src.offset + src.length);
  spans_.push_back(dst);
  live_edge_count_ += dst.length;
  // Checked-out scratch columns carry in-flight selections and must be
  // split-copied exactly like live ones; idle columns copy too (cheap,
  // and keeps every grown column sized to vertex_count()).
  for (size_t r = 0; r < relations_.size(); ++r) {
    if (relation_state_[r] != kRelationDead) {
      relations_[r].PushBack(relations_[r].Test(v));
    }
  }
  MarkVertexDirty(id);
  InvalidateTraversal();
  return id;
}

// Note: compaction moves spans inside the arena but leaves every child
// sequence — and therefore the traversal cache — unchanged.
void Instance::CompactEdges() {
  std::vector<Edge> packed;
  packed.reserve(live_edge_count_);
  for (EdgeSpan& span : spans_) {
    const uint64_t new_offset = packed.size();
    packed.insert(packed.end(), edges_.begin() + span.offset,
                  edges_.begin() + span.offset + span.length);
    span.offset = new_offset;
  }
  edges_ = std::move(packed);
}

RelationId Instance::AddRelation(std::string_view name) {
  const RelationId existing = schema_.Find(name);
  if (existing != kNoRelation) return existing;
  const RelationId id = schema_.Intern(name);
  if (id == relations_.size()) {
    relations_.emplace_back(vertex_count());
    relation_state_.push_back(kRelationLive);
  } else {
    // Intern reused a slot? Schema ids are append-only, so this cannot
    // happen; guard for safety.
    relations_.resize(schema_.size());
    relation_state_.resize(schema_.size(), kRelationLive);
    relations_[id] = DynamicBitset(vertex_count());
    relation_state_[id] = kRelationLive;
  }
  return id;
}

bool Instance::RemoveRelation(std::string_view name) {
  const RelationId id = schema_.Find(name);
  if (id == kNoRelation) return false;
  schema_.Remove(name);
  relations_[id] = DynamicBitset();  // release storage; tombstone stays
  relation_state_[id] = kRelationDead;
  ++tombstones_added_;
  return true;
}

std::vector<RelationId> Instance::LiveRelations() const {
  std::vector<RelationId> out;
  out.reserve(schema_.live_count());
  for (RelationId r = 0; r < schema_.size(); ++r) {
    if (!schema_.Name(r).empty()) out.push_back(r);
  }
  return out;
}

RelationId Instance::AcquireScratchRelation() {
  ++scratch_stats_.acquires;
  ++scratch_active_;
  if (!scratch_free_.empty()) {
    // Resident column: storage was kept at release and the column kept
    // growing with the vertex array, so a word-parallel clear is the
    // whole checkout cost.
    const RelationId id = scratch_free_.back();
    scratch_free_.pop_back();
    relation_state_[id] = kRelationScratch;
    relations_[id].ResetAll();
    ++scratch_stats_.pool_hits;
    return id;
  }
  if (!scratch_parked_.empty()) {
    // Parked slot beyond the resident cap: reuse the id, reallocate the
    // storage (the exhaustion fallback — counted, never fatal).
    const RelationId id = scratch_parked_.back();
    scratch_parked_.pop_back();
    relation_state_[id] = kRelationScratch;
    relations_[id] = DynamicBitset(vertex_count());
    ++scratch_stats_.allocations;
    return id;
  }
  const RelationId id = schema_.InternAnonymous();
  relations_.emplace_back(vertex_count());
  relation_state_.push_back(kRelationScratch);
  ++scratch_stats_.allocations;
  return id;
}

void Instance::ReleaseScratchRelation(RelationId r) {
  if (r >= relation_state_.size() ||
      relation_state_[r] != kRelationScratch) {
    return;  // not a checked-out scratch column; ignore
  }
  ++scratch_stats_.releases;
  --scratch_active_;
  if (scratch_free_.size() < scratch_capacity_) {
    relation_state_[r] = kRelationIdle;
    scratch_free_.push_back(r);
    return;
  }
  relations_[r] = DynamicBitset();  // past the cap: keep the id only
  relation_state_[r] = kRelationDead;
  scratch_parked_.push_back(r);
}

std::vector<VertexId> Instance::PostOrder() const {
  std::vector<VertexId> order;
  if (root_ == kNoVertex || vertex_count() == 0) return order;
  order.reserve(vertex_count());
  std::vector<uint8_t> visited(vertex_count(), 0);
  // Iterative DFS; frame = (vertex, index of next child run to visit).
  std::vector<std::pair<VertexId, uint32_t>> stack;
  stack.emplace_back(root_, 0);
  visited[root_] = 1;
  while (!stack.empty()) {
    auto& [v, next] = stack.back();
    const std::span<const Edge> children = Children(v);
    bool descended = false;
    while (next < children.size()) {
      const VertexId child = children[next].child;
      ++next;
      if (!visited[child]) {
        visited[child] = 1;
        stack.emplace_back(child, 0);
        descended = true;
        break;
      }
    }
    if (!descended && next >= children.size()) {
      order.push_back(v);
      stack.pop_back();
    }
  }
  return order;
}

std::vector<VertexId> Instance::TopologicalOrder() const {
  const TraversalCache& t = EnsureTraversal();
  std::vector<VertexId> order(t.order.rbegin(), t.order.rend());
  return order;
}

const TraversalCache& Instance::EnsureTraversal(
    bool need_heights, bool need_path_counts) const {
  if (traversal_.generation != structure_generation_) {
    traversal_.order = PostOrder();
    uint64_t edges = 0;
    for (const VertexId v : traversal_.order) {
      edges += Children(v).size();
    }
    traversal_.reachable_edges = edges;
    traversal_.has_heights = false;
    traversal_.has_path_counts = false;
    traversal_.generation = structure_generation_;
    ++traversal_builds_;
  }
  if (need_heights && !traversal_.has_heights) {
    const size_t n = vertex_count();
    traversal_.height.assign(n, TraversalCache::kNoHeight);
    uint32_t max_height = 0;
    for (const VertexId v : traversal_.order) {
      uint32_t h = 0;
      for (const Edge& e : Children(v)) {
        // Children precede parents in post-order, so their height is
        // final; reachable vertices only reach reachable children.
        const uint32_t below = traversal_.height[e.child] + 1;
        if (below > h) h = below;
      }
      traversal_.height[v] = h;
      if (h > max_height) max_height = h;
    }
    traversal_.bands.assign(traversal_.order.empty() ? 0 : max_height + 1,
                            {});
    for (const VertexId v : traversal_.order) {
      traversal_.bands[traversal_.height[v]].push_back(v);
    }
    traversal_.has_heights = true;
  }
  if (need_path_counts && !traversal_.has_path_counts) {
    traversal_.path_counts.assign(vertex_count(), 0);
    if (root_ != kNoVertex && vertex_count() > 0) {
      traversal_.path_counts[root_] = 1;
      // Reverse post-order = parents before children: each vertex's own
      // count is final before it is pushed down.
      for (auto it = traversal_.order.rbegin();
           it != traversal_.order.rend(); ++it) {
        const uint64_t mine = traversal_.path_counts[*it];
        for (const Edge& e : Children(*it)) {
          traversal_.path_counts[e.child] =
              SaturatingAdd(traversal_.path_counts[e.child],
                            SaturatingMul(mine, e.count));
        }
      }
    }
    traversal_.has_path_counts = true;
  }
  return traversal_;
}

Status Instance::Validate() const {
  const size_t n = vertex_count();
  if (n == 0) {
    return root_ == kNoVertex
               ? Status::OK()
               : Status::Corruption("empty instance has a root");
  }
  // A structure that passed at this generation still passes: skip to
  // the column sizes, which relation growth can change without a bump.
  const bool structure_checked = validated_generation_ == structure_generation_;
  if (!structure_checked && root_ >= n) {
    return Status::Corruption("root vertex out of range");
  }
  for (VertexId v = 0; !structure_checked && v < n; ++v) {
    if (spans_[v].offset + spans_[v].length > edges_.size()) {
      return Status::Corruption(
          StrFormat("vertex %u edge span out of range", v));
    }
    const std::span<const Edge> children = Children(v);
    for (size_t i = 0; i < children.size(); ++i) {
      if (children[i].child >= n) {
        return Status::Corruption(
            StrFormat("vertex %u has out-of-range child", v));
      }
      if (children[i].count == 0) {
        return Status::Corruption(
            StrFormat("vertex %u has a zero-count edge", v));
      }
      if (i > 0 && children[i].child == children[i - 1].child) {
        return Status::Corruption(
            StrFormat("vertex %u has adjacent runs of the same child "
                      "(not RLE-canonical)",
                      v));
      }
    }
  }
  for (const DynamicBitset& column : relations_) {
    if (!column.empty() && column.size() != n) {
      return Status::Corruption("relation column size mismatch");
    }
  }
  if (structure_checked) return Status::OK();
  // Acyclicity: DFS with colors (0 = new, 1 = on stack, 2 = done).
  std::vector<uint8_t> color(n, 0);
  std::vector<std::pair<VertexId, uint32_t>> stack;
  for (VertexId start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    stack.emplace_back(start, 0);
    color[start] = 1;
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      const std::span<const Edge> children = Children(v);
      // Shared children are mostly done already: skip them in place.
      while (next < children.size() && color[children[next].child] == 2) {
        ++next;
      }
      if (next < children.size()) {
        const VertexId child = children[next].child;
        ++next;
        if (color[child] == 1) {
          return Status::Corruption(
              StrFormat("cycle through vertex %u", child));
        }
        color[child] = 1;
        stack.emplace_back(child, 0);
      } else {
        color[v] = 2;
        stack.pop_back();
      }
    }
  }
  validated_generation_ = structure_generation_;
  return Status::OK();
}

size_t Instance::MemoryFootprint() const {
  size_t bytes = spans_.capacity() * sizeof(EdgeSpan) +
                 edges_.capacity() * sizeof(Edge);
  for (const DynamicBitset& column : relations_) {
    bytes += column.words().capacity() * sizeof(uint64_t);
  }
  // The incremental-minimization cache and the traversal cache live
  // inside the instance and are real heap; count them so the server's
  // capacity accounting stays honest.
  bytes += minimize_cache_.MemoryFootprint();
  bytes += traversal_.MemoryFootprint();
  bytes += dirty_flag_.capacity() +
           dirty_list_.capacity() * sizeof(VertexId);
  return bytes;
}

}  // namespace xcq
