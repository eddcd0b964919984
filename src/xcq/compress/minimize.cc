#include "xcq/compress/minimize.h"

#include <algorithm>

#include "xcq/compress/dag_builder.h"
#include "xcq/util/hash.h"
#include "xcq/util/timer.h"

namespace xcq {

namespace {

/// Exact signature equality: same membership in every live relation and
/// identical child runs. Both vertices belong to `instance`.
bool SameSignature(const Instance& instance,
                   const std::vector<RelationId>& live, VertexId a,
                   VertexId b) {
  const std::span<const Edge> ea = instance.Children(a);
  const std::span<const Edge> eb = instance.Children(b);
  if (!std::equal(ea.begin(), ea.end(), eb.begin(), eb.end())) return false;
  for (const RelationId r : live) {
    if (instance.Test(r, a) != instance.Test(r, b)) return false;
  }
  return true;
}

}  // namespace

Result<Instance> Minimize(const Instance& input) {
  if (input.vertex_count() == 0 || input.root() == kNoVertex) {
    return Status::InvalidArgument("Minimize: empty instance");
  }

  // Dense label ids for live relations, in schema-id order; names carry
  // over to the output so equivalence is preserved relation-by-relation.
  const std::vector<RelationId> live = input.LiveRelations();
  std::vector<std::string> names;
  names.reserve(live.size());
  for (RelationId r : live) names.push_back(input.schema().Name(r));

  // Per-vertex sorted label lists, built column-by-column: the outer loop
  // ascends over dense ids, so each vertex's list is already sorted.
  std::vector<std::vector<RelationId>> labels(input.vertex_count());
  for (size_t dense = 0; dense < live.size(); ++dense) {
    input.RelationBits(live[dense]).ForEach([&](size_t v) {
      labels[v].push_back(static_cast<RelationId>(dense));
    });
  }

  DagBuilder builder;
  std::vector<VertexId> remap(input.vertex_count(), kNoVertex);
  std::vector<Edge> edges_scratch;
  // `input` is only read; the cached order is safe to iterate in place.
  for (VertexId v : input.EnsureTraversal().order) {
    edges_scratch.clear();
    for (const Edge& e : input.Children(v)) {
      // Children interned first (post-order); merging runs here re-joins
      // edges whose distinct children collapsed to one canonical vertex.
      AppendEdgeRle(&edges_scratch, Edge{remap[e.child], e.count});
    }
    remap[v] = builder.Intern(labels[v], edges_scratch);
  }
  return builder.Finish(remap[input.root()], names);
}

Status MinimizeInPlace(Instance* instance, const CancelToken* cancel,
                       InPlaceMinimizeStats* stats) {
  if (instance == nullptr) {
    return Status::InvalidArgument("MinimizeInPlace: instance is null");
  }
  if (instance->vertex_count() == 0 || instance->root() == kNoVertex) {
    return Status::InvalidArgument("MinimizeInPlace: empty instance");
  }
  Timer timer;
  InPlaceMinimizeStats local;
  InPlaceMinimizeStats& out = stats != nullptr ? *stats : local;
  out = InPlaceMinimizeStats{};
  if (cancel != nullptr) XCQ_RETURN_IF_ERROR(cancel->Check());

  // Read in place: the loop below rewrites edges, which only marks the
  // cached order stale; nothing rebuilds it before the compaction step.
  const std::vector<VertexId>& post = instance->EnsureTraversal().order;
  const size_t n = instance->vertex_count();

  // Label sums, column by column: word-parallel over the relation
  // bitsets instead of per-vertex membership probes.
  const std::vector<RelationId> live = instance->LiveRelations();
  std::vector<uint64_t> label_sum(n, 0);
  for (const RelationId r : live) {
    const uint64_t mixed = Mix64(r + 1);
    instance->RelationBits(r).ForEach(
        [&label_sum, mixed](size_t v) { label_sum[v] += mixed; });
  }

  // Open-addressed hash-cons table over this pass's canonical vertices,
  // at most half full.
  size_t capacity = 2;
  while (capacity < 2 * post.size()) capacity *= 2;
  const size_t mask = capacity - 1;
  std::vector<std::pair<uint64_t, VertexId>> table(capacity,
                                                   {0, kNoVertex});

  // remap[v] != kNoVertex: v was folded into that canonical vertex.
  // Children precede parents in post-order and only canonical vertices
  // enter the table, so one lookup resolves any child.
  std::vector<VertexId> remap(n, kNoVertex);
  std::vector<Edge> scratch;
  size_t processed = 0;
  for (const VertexId v : post) {
    // Every committed merge is tree-preserving, so a cancelled pass
    // leaves the instance consistent at any vertex boundary.
    if (cancel != nullptr && ++processed % 4096 == 0) {
      XCQ_RETURN_IF_ERROR(cancel->Check());
    }
    scratch.clear();
    for (const Edge& e : instance->Children(v)) {
      const VertexId child = remap[e.child];
      AppendEdgeRle(&scratch, Edge{child == kNoVertex ? e.child : child,
                                   e.count});
    }
    instance->SetEdges(v, scratch);  // no-op when nothing was re-pointed

    Hasher hasher;
    hasher.Add(label_sum[v]);
    hasher.Add(scratch.size());
    for (const Edge& e : scratch) {
      hasher.Add(e.child);
      hasher.Add(e.count);
    }
    const uint64_t h = hasher.Finish();
    for (size_t slot = h & mask;; slot = (slot + 1) & mask) {
      auto& [slot_hash, slot_vertex] = table[slot];
      if (slot_vertex == kNoVertex) {
        table[slot] = {h, v};
        ++out.reachable_vertices;
        out.reachable_edges += scratch.size();
        break;
      }
      if (slot_hash == h && SameSignature(*instance, live, slot_vertex, v)) {
        remap[v] = slot_vertex;
        ++out.merged;
        break;
      }
    }
  }
  // The root never merges: no proper descendant is bisimilar to it.

  // Merged-away vertices (and any split leftovers) stay behind as
  // unreachable garbage; once it is most of the vertex array, one full
  // rebuild compacts ids, drops schema tombstones and packs the edges.
  if (n - out.reachable_vertices > n / 2) {
    XCQ_ASSIGN_OR_RETURN(Instance compacted, Minimize(*instance));
    *instance = std::move(compacted);
    out.compacted = true;
  }
  out.seconds = timer.Seconds();
  return Status::OK();
}

Result<Instance> InstanceFromTree(const LabeledTree& labeled,
                                  const TreeInstanceOptions& options) {
  const TreeSkeleton& tree = labeled.tree;
  if (tree.empty()) {
    return Status::InvalidArgument("InstanceFromTree: empty tree");
  }

  Instance instance;
  // Vertex ids coincide with tree node ids (both preorder).
  for (TreeNodeId n = 0; n < tree.node_count(); ++n) instance.AddVertex();

  std::vector<Edge> edges;
  for (TreeNodeId n = 0; n < tree.node_count(); ++n) {
    edges.clear();
    for (TreeNodeId c = tree.FirstChild(n); c != kNoTreeNode;
         c = tree.NextSibling(c)) {
      // Distinct tree nodes: every run has multiplicity 1 by construction.
      edges.push_back(Edge{c, 1});
    }
    instance.SetEdges(n, edges);
  }
  instance.SetRoot(tree.root());

  // Pattern relations.
  for (size_t p = 0; p < labeled.patterns.size(); ++p) {
    const RelationId r = instance.AddRelation(
        Schema::StringRelationName(labeled.patterns[p]));
    instance.MutableRelationBits(r) = labeled.pattern_sets[p];
  }

  // Tag relations.
  if (options.all_tags) {
    for (TreeNodeId n = 0; n < tree.node_count(); ++n) {
      const RelationId r = instance.AddRelation(tree.TagName(n));
      instance.SetBit(r, n);
    }
  } else {
    for (const std::string& tag : options.tags) {
      const RelationId r = instance.AddRelation(tag);
      const TagId tag_id = tree.tag_table().Find(tag);
      if (tag_id == TagTable::kNoTag) continue;
      for (TreeNodeId n = 0; n < tree.node_count(); ++n) {
        if (tree.Tag(n) == tag_id) instance.SetBit(r, n);
      }
    }
  }
  return instance;
}

}  // namespace xcq
