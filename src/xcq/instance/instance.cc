#include "xcq/instance/instance.h"

#include <algorithm>
#include <iterator>
#include <map>

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

uint64_t Instance::LabelSchemaFingerprint() const {
  // FNV-1a over (id, name) of every live non-`xcq:` relation. Ids are
  // mixed in because summary labels store ids: a removed-and-reinterned
  // name gets a fresh id and must invalidate.
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (RelationId r = 0; r < schema_.size(); ++r) {
    const std::string_view name = schema_.Name(r);
    if (name.empty() || name.starts_with("xcq:")) continue;
    mix(r);
    for (const char c : name) mix(static_cast<unsigned char>(c));
    mix(0x1F);  // name terminator
  }
  return h;
}

const PathSummary& Instance::EnsurePathSummary() const {
  const uint64_t fingerprint = LabelSchemaFingerprint();
  if (path_summary_.generation == structure_generation_ &&
      path_summary_.schema_fingerprint == fingerprint) {
    return path_summary_;
  }
  ++path_summary_builds_;
  path_summary_ = PathSummary{};
  path_summary_.generation = structure_generation_;
  path_summary_.schema_fingerprint = fingerprint;

  const size_t n = vertex_count();
  const TraversalCache& t = EnsureTraversal();
  if (root_ == kNoVertex || t.order.empty()) {
    path_summary_.vertex_begin.assign(n + 1, 0);
    return path_summary_;
  }

  // Intern per-vertex labels (sorted live non-`xcq:` relation id sets).
  std::vector<RelationId> label_rels;
  for (RelationId r = 0; r < schema_.size(); ++r) {
    const std::string_view name = schema_.Name(r);
    if (!name.empty() && !name.starts_with("xcq:")) label_rels.push_back(r);
  }
  std::map<std::vector<RelationId>, uint32_t> label_ids;
  std::vector<uint32_t> vertex_label(n, 0);
  std::vector<RelationId> key;
  for (const VertexId v : t.order) {
    key.clear();
    for (const RelationId r : label_rels) {
      const DynamicBitset& column = relations_[r];
      if (v < column.size() && column.Test(v)) key.push_back(r);
    }
    const auto it = label_ids.find(key);
    if (it != label_ids.end()) {
      vertex_label[v] = it->second;
    } else {
      const uint32_t id = static_cast<uint32_t>(path_summary_.labels.size());
      label_ids.emplace(key, id);
      path_summary_.labels.push_back(key);
      vertex_label[v] = id;
    }
  }

  // Parent lists (CSR over the reachable edges). Each slice is filled
  // back to front over post-order, which leaves it in reverse
  // post-order -- parents first -- and parent_begin[v] at its start.
  std::vector<uint32_t> parent_begin(n + 1, 0);
  for (const VertexId u : t.order) {
    for (const Edge& e : Children(u)) ++parent_begin[e.child];
  }
  uint32_t total = 0;
  for (size_t v = 0; v < n; ++v) {
    total += parent_begin[v];
    parent_begin[v] = total;
  }
  parent_begin[n] = total;
  std::vector<VertexId> parents(total);
  for (const VertexId u : t.order) {
    for (const Edge& e : Children(u)) parents[--parent_begin[e.child]] = u;
  }

  // Visit each reachable vertex once in reverse post-order (parents
  // before children): it pulls the trie child under its own label from
  // every path its parents realize, and appends its now-final slice to
  // `paths`. RLE lists may repeat a child in non-adjacent runs and many
  // parents may realize the same path; distinct parent paths have
  // distinct trie children, so a per-node stamp of the last vertex that
  // pulled it dedups in O(1). Saturate as soon as the realizations
  // exceed the budget (see PathSummary); every new trie node adds a
  // realization, so this bounds the node count too.
  const size_t budget = t.order.size() + t.reachable_edges;
  std::vector<PathSummary::Node>& nodes = path_summary_.nodes;
  // Per trie node: its newest child and next-older sibling (the child
  // index, scanned by label) and the dedup stamp.
  std::vector<uint32_t> first_child;
  std::vector<uint32_t> next_sibling;
  std::vector<VertexId> pulled_by;
  std::vector<uint32_t> path_begin(n, 0);
  std::vector<uint32_t> path_count(n, 0);
  std::vector<uint32_t> paths;
  const auto add_node = [&](uint32_t parent, uint32_t label) {
    const uint32_t node = static_cast<uint32_t>(nodes.size());
    nodes.push_back(PathSummary::Node{parent, label});
    first_child.push_back(PathSummary::kNoNode);
    pulled_by.push_back(kNoVertex);
    if (parent == PathSummary::kNoNode) {
      next_sibling.push_back(PathSummary::kNoNode);
    } else {
      next_sibling.push_back(first_child[parent]);
      first_child[parent] = node;
    }
    return node;
  };
  paths.push_back(add_node(PathSummary::kNoNode, vertex_label[root_]));
  path_count[root_] = 1;
  size_t realizations = 1;
  bool saturated = false;

  // Post-order ends at the root, which realizes node 0 alone.
  for (auto it = std::next(t.order.rbegin());
       it != t.order.rend() && !saturated; ++it) {
    const VertexId v = *it;
    const uint32_t label = vertex_label[v];
    path_begin[v] = static_cast<uint32_t>(paths.size());
    for (uint32_t i = parent_begin[v]; i < parent_begin[v + 1] && !saturated;
         ++i) {
      const VertexId u = parents[i];
      const uint32_t end = path_begin[u] + path_count[u];
      for (uint32_t j = path_begin[u]; j < end; ++j) {
        const uint32_t path = paths[j];
        if (pulled_by[path] == v) continue;
        pulled_by[path] = v;
        uint32_t node = first_child[path];
        while (node != PathSummary::kNoNode && nodes[node].label != label) {
          node = next_sibling[node];
        }
        if (node == PathSummary::kNoNode) node = add_node(path, label);
        if (++realizations > budget) {
          saturated = true;
          break;
        }
        paths.push_back(node);
      }
    }
    path_count[v] = static_cast<uint32_t>(paths.size()) - path_begin[v];
  }

  if (saturated) {
    // Stay "built" for this generation so hot paths do not rebuild per
    // query; carry no nodes so pruning stands down.
    path_summary_.saturated = true;
    path_summary_.nodes.clear();
    path_summary_.nodes.shrink_to_fit();
    path_summary_.labels.clear();
    path_summary_.vertex_begin.assign(n + 1, 0);
    return path_summary_;
  }

  path_summary_.vertex_begin.resize(n + 1);
  path_summary_.vertex_nodes.reserve(realizations);
  uint32_t offset = 0;
  for (VertexId v = 0; v < n; ++v) {
    path_summary_.vertex_begin[v] = offset;
    path_summary_.vertex_nodes.insert(
        path_summary_.vertex_nodes.end(), paths.begin() + path_begin[v],
        paths.begin() + path_begin[v] + path_count[v]);
    offset += path_count[v];
  }
  path_summary_.vertex_begin[n] = offset;
  return path_summary_;
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
  bytes += path_summary_.MemoryFootprint();
  bytes += dirty_flag_.capacity() +
           dirty_list_.capacity() * sizeof(VertexId);
  return bytes;
}

}  // namespace xcq
