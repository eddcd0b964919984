#include "xcq/compress/common_extension.h"

#include <unordered_map>

#include "xcq/util/hash.h"
#include "xcq/util/string_util.h"

namespace xcq {

namespace {

uint64_t PairKey(VertexId a, VertexId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Decomposes the child sequences of a vertex pair into lockstep runs:
/// each output triple is (child_of_a, child_of_b, shared_multiplicity).
/// Fails if the expanded sequences have different lengths.
Status LockstepRuns(std::span<const Edge> ea, std::span<const Edge> eb,
                    std::vector<std::tuple<VertexId, VertexId, uint64_t>>*
                        out) {
  out->clear();
  size_t i = 0;
  size_t j = 0;
  uint64_t rem_a = ea.empty() ? 0 : ea[0].count;
  uint64_t rem_b = eb.empty() ? 0 : eb[0].count;
  while (i < ea.size() && j < eb.size()) {
    const uint64_t take = rem_a < rem_b ? rem_a : rem_b;
    out->emplace_back(ea[i].child, eb[j].child, take);
    rem_a -= take;
    rem_b -= take;
    if (rem_a == 0 && ++i < ea.size()) rem_a = ea[i].count;
    if (rem_b == 0 && ++j < eb.size()) rem_b = eb[j].count;
  }
  if (i < ea.size() || j < eb.size()) {
    return Status::Incompatible(
        "instances disagree on the number of children of a shared node");
  }
  return Status::OK();
}

}  // namespace

Result<Instance> CommonExtension(const Instance& a, const Instance& b,
                                 const CommonExtensionOptions& options) {
  if (a.vertex_count() == 0 || b.vertex_count() == 0 ||
      a.root() == kNoVertex || b.root() == kNoVertex) {
    return Status::InvalidArgument("CommonExtension: empty instance");
  }

  // Union schema: relations of `a` first, then the names unique to `b`.
  // For shared names, memberships must agree on every paired vertex.
  Instance out;
  struct RelSource {
    RelationId out_id;
    RelationId a_id;  // kNoRelation if absent in a
    RelationId b_id;  // kNoRelation if absent in b
  };
  std::vector<RelSource> sources;
  for (RelationId ra : a.LiveRelations()) {
    const std::string& name = a.schema().Name(ra);
    sources.push_back(
        RelSource{out.AddRelation(name), ra, b.FindRelation(name)});
  }
  for (RelationId rb : b.LiveRelations()) {
    const std::string& name = b.schema().Name(rb);
    if (a.FindRelation(name) != kNoRelation) continue;
    sources.push_back(RelSource{out.AddRelation(name), kNoRelation, rb});
  }

  // Lazy product over reachable pairs, children-first (post-order).
  std::unordered_map<uint64_t, VertexId> memo;
  constexpr VertexId kInProgress = kNoVertex;

  struct Frame {
    VertexId va;
    VertexId vb;
    std::vector<std::tuple<VertexId, VertexId, uint64_t>> runs;
    size_t next = 0;
  };
  std::vector<Frame> stack;

  const auto schedule = [&](VertexId va, VertexId vb) -> Status {
    Frame frame;
    frame.va = va;
    frame.vb = vb;
    XCQ_RETURN_IF_ERROR(
        LockstepRuns(a.Children(va), b.Children(vb), &frame.runs));
    memo.emplace(PairKey(va, vb), kInProgress);
    stack.push_back(std::move(frame));
    return Status::OK();
  };

  XCQ_RETURN_IF_ERROR(schedule(a.root(), b.root()));
  std::vector<Edge> edges_scratch;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    bool descended = false;
    while (frame.next < frame.runs.size()) {
      const auto& [ca, cb, count] = frame.runs[frame.next];
      const auto it = memo.find(PairKey(ca, cb));
      if (it == memo.end()) {
        XCQ_RETURN_IF_ERROR(schedule(ca, cb));
        descended = true;
        break;
      }
      if (it->second == kInProgress) {
        // Only possible if an input graph has a cycle (invalid instance).
        return Status::Incompatible(
            "cycle detected while building the product");
      }
      ++frame.next;
    }
    if (descended) continue;

    // All child pairs resolved: emit this product vertex.
    edges_scratch.clear();
    for (const auto& [ca, cb, count] : frame.runs) {
      const VertexId child = memo.at(PairKey(ca, cb));
      AppendEdgeRle(&edges_scratch, Edge{child, count});
    }
    const VertexId v = out.AddVertex();
    if (out.vertex_count() > options.max_vertices) {
      return Status::ResourceExhausted(
          "common extension exceeds the vertex budget");
    }
    out.SetEdges(v, edges_scratch);
    for (const RelSource& src : sources) {
      const bool in_a =
          src.a_id != kNoRelation && a.Test(src.a_id, frame.va);
      const bool in_b =
          src.b_id != kNoRelation && b.Test(src.b_id, frame.vb);
      if (src.a_id != kNoRelation && src.b_id != kNoRelation &&
          in_a != in_b) {
        return Status::Incompatible(StrFormat(
            "instances disagree on shared relation '%s'",
            out.schema().Name(src.out_id).c_str()));
      }
      if (in_a || in_b) out.SetBit(src.out_id, v);
    }
    memo[PairKey(frame.va, frame.vb)] = v;
    stack.pop_back();
  }

  out.SetRoot(memo.at(PairKey(a.root(), b.root())));
  return out;
}

Instance Reduct(const Instance& instance,
                const std::vector<std::string>& keep) {
  Instance out;
  for (VertexId v = 0; v < instance.vertex_count(); ++v) out.AddVertex();
  for (VertexId v = 0; v < instance.vertex_count(); ++v) {
    out.SetEdges(v, instance.Children(v));
  }
  out.SetRoot(instance.root());
  for (const std::string& name : keep) {
    const RelationId src = instance.FindRelation(name);
    if (src == kNoRelation) continue;
    const RelationId dst = out.AddRelation(name);
    out.MutableRelationBits(dst) = instance.RelationBits(src);
  }
  return out;
}

}  // namespace xcq
