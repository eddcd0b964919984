#ifndef XCQ_ENGINE_PRUNE_H_
#define XCQ_ENGINE_PRUNE_H_

/// \file prune.h
/// Path-summary sweep pruning (docs/INTERNALS.md §9).
///
/// The evaluator interprets each plan abstractly over the instance's
/// path summary (Instance::EnsurePathSummary): every op gets an
/// *admissible node set* — summary paths its selection can possibly
/// lie on — computed by the same transfer the concrete op applies,
/// intersected down the plan. Before a concrete axis sweep, the
/// admissible sets of its source and destination are turned into a
/// *vertex region*: the set of vertices the deterministic axis kernels
/// (engine/axes.h) must visit to produce an instance bit-identical to
/// the unpruned sweep (same bits, same splits in the same order, same
/// re-pointed edges). Everything outside the region is provably
/// untouched: its destination bits stay 0, it never splits, and its
/// edge lists are rewritten (if at all) to identical content, which
/// `Instance::SetEdges` already treats as a no-op.
///
/// The soundness invariant maintained by every evaluator column: if a
/// relation bit is set on vertex v, then *all* tree occurrences of v
/// are selected, so v's entire realized path set lies inside the op's
/// admissible set. Region construction closes the admissible sets
/// under trie-parents of the realized paths, which covers exactly the
/// demand-0 completions (fringe parents, sibling lists) the kernels
/// need for split parity; see INTERNALS.md §9 for the argument.

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "xcq/algebra/op.h"
#include "xcq/engine/axes.h"
#include "xcq/engine/evaluator.h"
#include "xcq/instance/instance.h"
#include "xcq/util/bitset.h"

namespace xcq::engine {

/// \brief Verdict for one concrete sweep.
struct PruneGate {
  /// The sweep cannot select or split anything: skip it outright (the
  /// destination column stays all-zero, exactly the unpruned result).
  bool skip = false;
  /// Vertex region to restrict the kernel to; null = sweep everything
  /// (pruning unavailable). Borrowed from the issuing pruner and valid
  /// until its next Gate call.
  const DynamicBitset* region = nullptr;
  /// Number of vertices in `region` (0 when null or skipped).
  uint64_t region_vertices = 0;
};

/// \brief Region machinery over one bound summary: turns admissible
/// node sets into vertex regions. The binding tolerates mid-plan
/// splits (which only add clone vertices): bind-time realization
/// slices stay supersets for pre-existing vertices, and Realize admits
/// every post-bind vertex unconditionally. Callers re-Bind only when
/// the label schema changes or vertices are renumbered.
class SummaryRegions {
 public:
  /// Binds to `instance.EnsurePathSummary()` (building it if needed).
  /// Inactive when the summary is saturated or the instance is empty.
  void Bind(const Instance& instance);

  bool active() const { return active_; }
  const PathSummary& summary() const { return *summary_; }
  /// Instance vertex count at Bind time (0 while inactive).
  size_t bound_vertices() const { return bound_vertices_; }

  /// Computes the gate for one sweep from the admissible node sets of
  /// its source and destination (sized to the summary's node count).
  /// The returned region pointer is invalidated by the next Gate call.
  PruneGate Gate(AxisFamily family, const DynamicBitset& src_nodes,
                 const DynamicBitset& dst_nodes);

 private:
  /// Sets `region_` to the vertices realizing a node in `want` and
  /// returns their count.
  uint64_t Realize(const DynamicBitset& want);
  /// Collects into `collected_` every node realized by a vertex that
  /// realizes a node in `base` (the paths of the base region).
  void CollectRealized(const DynamicBitset& base);

  const Instance* instance_ = nullptr;
  const PathSummary* summary_ = nullptr;
  bool active_ = false;
  size_t bound_vertices_ = 0;  ///< vertex count at Bind time
  DynamicBitset base_;       ///< node-set scratch
  DynamicBitset collected_;  ///< node-set scratch
  DynamicBitset region_;     ///< vertex region handed out via PruneGate
};

/// \brief The admissible node sets of one compiled plan over one bound
/// summary — a pure function of (summary, plan, options), recomputed
/// wholesale after a summary rebuild (node ids renumber).
class PlanAbstract {
 public:
  void Compute(const Instance& instance, const PathSummary& summary,
               const algebra::QueryPlan& plan, const EvalOptions& options);

  /// Admissible set of op `i`'s selection.
  const DynamicBitset& OpSet(size_t i) const { return op_sets_[i]; }

  /// Stage outputs for composed kFollowing/kPreceding ops: stage 0 =
  /// ancestor-or-self, stage 1 = sibling, stage 2 = OpSet(i).
  const DynamicBitset& StageSet(size_t i, int stage) const;

 private:
  std::vector<DynamicBitset> op_sets_;
  /// {aos, sibling} outputs, present only for composed-axis ops.
  std::map<size_t, std::array<DynamicBitset, 2>> stage_sets_;
};

/// \brief The pruner of one run of the plan interpreter (one plan for a
/// QUERY, N for a shared BATCH): keeps the summary binding and each
/// plan's abstract sets in sync and issues one gate per sweep.
/// Mid-plan splits bump the structure generation but leave the binding
/// usable (clones realize subsets of existing paths and old vertices
/// never gain incoming edges), so the pruner rides out the drift instead
/// of rebuilding the summary per split; only a label schema change or
/// vertex renumbering forces a re-bind.
class PlanPruner {
 public:
  PlanPruner(Instance* instance, std::span<const algebra::QueryPlan> plans,
             const EvalOptions* options);

  /// Gate for one sweep of `lanes` (Syncs first): `stage` is -1 for a
  /// plain axis op, 0/1/2 for the ancestor-or-self / sibling /
  /// descendant-or-self stages of a composed kFollowing/kPreceding op.
  /// Several lanes are gated by the union of their members' admissible
  /// sets. Every transfer and closure is monotone, so the union gate's
  /// region contains each member's own region (bit-identical parity per
  /// member), and a skip means every member's sweep would select and
  /// split nothing — as when every lane's concrete source is empty.
  PruneGate Gate(AxisFamily family, std::span<const SweepLane> lanes,
                 int stage);

  /// Summary nodes at the current binding (0 while inactive).
  uint64_t summary_nodes() const {
    return regions_.active() ? regions_.summary().nodes.size() : 0;
  }

 private:
  /// Re-binds if the instance's summary went stale. Returns active().
  bool Sync();

  Instance* instance_;
  std::span<const algebra::QueryPlan> plans_;
  const EvalOptions* options_;
  SummaryRegions regions_;
  std::vector<PlanAbstract> abstracts_;  ///< one per plan
  DynamicBitset union_src_;              ///< multi-lane gate scratch
  DynamicBitset union_dst_;
  uint64_t bound_generation_ = 0;
  uint64_t bound_fingerprint_ = 0;
  bool bound_ = false;
};

}  // namespace xcq::engine

#endif  // XCQ_ENGINE_PRUNE_H_
