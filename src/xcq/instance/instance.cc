#include "xcq/instance/instance.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

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

  // Grow the trie over reverse post-order (parents before children), so
  // every vertex's realized-path set is final before it is pushed down.
  // Saturate as soon as the realizations exceed the budget (see
  // PathSummary); every new trie node adds a realization, so this
  // bounds the node count too.
  const size_t budget = t.order.size() + t.reachable_edges;
  std::vector<PathSummary::Node>& nodes = path_summary_.nodes;
  std::unordered_map<uint64_t, uint32_t> child_index;  // parent<<32 | label
  std::unordered_set<uint64_t> realization_seen;       // vertex<<32 | node
  std::vector<std::vector<uint32_t>> realized(n);
  size_t realizations = 1;
  bool saturated = false;
  nodes.push_back(
      PathSummary::Node{PathSummary::kNoNode, vertex_label[root_]});
  realized[root_].push_back(0);

  for (auto it = t.order.rbegin(); it != t.order.rend() && !saturated;
       ++it) {
    const VertexId v = *it;
    for (const uint32_t path : realized[v]) {
      for (const Edge& e : Children(v)) {
        const uint64_t lookup =
            (uint64_t{path} << 32) | vertex_label[e.child];
        uint32_t node;
        const auto found = child_index.find(lookup);
        if (found != child_index.end()) {
          node = found->second;
        } else {
          node = static_cast<uint32_t>(nodes.size());
          nodes.push_back(PathSummary::Node{path, vertex_label[e.child]});
          child_index.emplace(lookup, node);
        }
        // RLE lists may repeat a child in non-adjacent runs, and many
        // parents realizing the same path reach the same child; the
        // hash dedups in O(1) (deep corpora realize tens of thousands
        // of paths at one vertex, so a linear scan would be quadratic).
        // Membership only — push order stays deterministic.
        std::vector<uint32_t>& into = realized[e.child];
        if (realization_seen
                .emplace((uint64_t{e.child} << 32) | node)
                .second) {
          if (++realizations > budget) {
            saturated = true;
            break;
          }
          into.push_back(node);
        }
      }
      if (saturated) break;
    }
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
    path_summary_.vertex_nodes.insert(path_summary_.vertex_nodes.end(),
                                      realized[v].begin(),
                                      realized[v].end());
    offset += static_cast<uint32_t>(realized[v].size());
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
  if (root_ >= n) return Status::Corruption("root vertex out of range");
  for (VertexId v = 0; v < n; ++v) {
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
      if (next < children.size()) {
        const VertexId child = children[next].child;
        ++next;
        if (color[child] == 1) {
          return Status::Corruption(
              StrFormat("cycle through vertex %u", child));
        }
        if (color[child] == 0) {
          color[child] = 1;
          stack.emplace_back(child, 0);
        }
      } else {
        color[v] = 2;
        stack.pop_back();
      }
    }
  }
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
