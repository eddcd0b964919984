// google-benchmark microbenchmarks for the individual algebra operators
// on compressed instances vs the uncompressed tree baseline.
//
// Upward axes run in place (no mutation), so they are measured directly,
// on warm caches. Splitting axes mutate the instance; their cold rows
// copy the pristine instance each iteration (and rebuild its traversal
// cache and parent index after the split), and a separate
// "InstanceCopy" benchmark quantifies the copy for subtraction. Their
// "From" rows run in place on an instance warmed to its split fixpoint,
// as on a resident instance after warm-up.

#include <benchmark/benchmark.h>

#include "xcq/api.h"

namespace xcq {
namespace {

/// Fixture state shared by all microbenchmarks: a mid-size XMark
/// document, compressed with the tags the axes get applied to.
struct MicroState {
  Instance instance;
  LabeledTree labeled;
  RelationId src = kNoRelation;

  static const MicroState& Get() {
    static const MicroState* state = [] {
      auto* s = new MicroState();
      corpus::GenerateOptions gen;
      gen.target_nodes = 120000;
      gen.seed = 42;
      const std::string xml = corpus::XMark().Generate(gen);
      CompressOptions options;
      options.mode = LabelMode::kSchema;
      options.tags = {"item", "listitem", "text", "description"};
      s->instance = *CompressXml(xml, options);
      s->labeled = *TreeBuilder::Build(xml);
      s->src = s->instance.FindRelation("item");
      return s;
    }();
    return *state;
  }
};

void BM_InstanceCopy(benchmark::State& state) {
  const MicroState& micro = MicroState::Get();
  for (auto _ : state) {
    Instance copy = micro.instance;
    benchmark::DoNotOptimize(copy.vertex_count());
  }
}
BENCHMARK(BM_InstanceCopy);

void RunAxisBenchmark(benchmark::State& state, const char* axis_query) {
  const MicroState& micro = MicroState::Get();
  const algebra::QueryPlan plan =
      *algebra::CompileString(std::string("//item/") + axis_query);
  uint64_t selected = 0;
  for (auto _ : state) {
    Instance copy = micro.instance;
    const RelationId result =
        *engine::Evaluate(&copy, plan, engine::EvalOptions{}, nullptr);
    selected += copy.RelationBits(result).Count();
    benchmark::DoNotOptimize(selected);
  }
}

/// Upward steps never change the DAG, so they run in place on one copy
/// whose traversal cache and parent index the first iteration builds,
/// as on a resident instance after warm-up. The sources span the upward
/// sweeps' density rule (docs/INTERNALS.md §8.5): from `//text` (113 of
/// the 2,234 vertices touched) a parent step walks its frontier, while
/// an ancestor walk outgrows its budget and pushes on over every
/// position from there; `//item` (whose in-edges pass the budget) and
/// `//*` (every node but the root) take the dense push from position 0
/// at once.
void RunUpwardBenchmark(benchmark::State& state, const char* source,
                        const char* axis_query) {
  Instance instance = MicroState::Get().instance;
  const algebra::QueryPlan plan =
      *algebra::CompileString(std::string(source) + axis_query);
  uint64_t selected = 0;
  for (auto _ : state) {
    const RelationId result =
        *engine::Evaluate(&instance, plan, engine::EvalOptions{}, nullptr);
    selected += instance.RelationBits(result).Count();
    benchmark::DoNotOptimize(selected);
  }
}

/// Downward steps split only until the instance reaches the split
/// fixpoint of their query; the warm-up runs the query twice, so the
/// timed sweeps split nothing and run in place like upward ones. The
/// sources span the downward sweeps' density rule (docs/INTERNALS.md
/// §8.5): from the root (`/*`, 2 of the 2,234 vertices decided) a child
/// step walks its frontier, while from `//item` and from `//*` (every
/// node but the root) the sources' out-edges pass the budget and the
/// sweep pulls every position.
void RunDownwardBenchmark(benchmark::State& state, const char* source,
                          const char* axis_query) {
  Instance instance = MicroState::Get().instance;
  const algebra::QueryPlan plan =
      *algebra::CompileString(std::string(source) + axis_query);
  for (int warm = 0; warm < 2; ++warm) {
    (void)*engine::Evaluate(&instance, plan, engine::EvalOptions{}, nullptr);
  }
  uint64_t selected = 0;
  for (auto _ : state) {
    const RelationId result =
        *engine::Evaluate(&instance, plan, engine::EvalOptions{}, nullptr);
    selected += instance.RelationBits(result).Count();
    benchmark::DoNotOptimize(selected);
  }
}

void BM_DagChild(benchmark::State& state) {
  RunAxisBenchmark(state, "*");
}
void BM_DagDescendant(benchmark::State& state) {
  RunAxisBenchmark(state, "descendant::*");
}
void BM_DagChildFromRoot(benchmark::State& state) {
  RunDownwardBenchmark(state, "/", "*");
}
void BM_DagChildFromItem(benchmark::State& state) {
  RunDownwardBenchmark(state, "//item/", "*");
}
void BM_DagChildFromAll(benchmark::State& state) {
  RunDownwardBenchmark(state, "//*/", "*");
}
void BM_DagDescendantFromItem(benchmark::State& state) {
  RunDownwardBenchmark(state, "//item/", "descendant::*");
}
void BM_DagParent(benchmark::State& state) {
  RunUpwardBenchmark(state, "//item/", "parent::*");
}
void BM_DagAncestor(benchmark::State& state) {
  RunUpwardBenchmark(state, "//item/", "ancestor::*");
}
void BM_DagParentFromText(benchmark::State& state) {
  RunUpwardBenchmark(state, "//text/", "parent::*");
}
void BM_DagAncestorFromText(benchmark::State& state) {
  RunUpwardBenchmark(state, "//text/", "ancestor::*");
}
void BM_DagParentFromAll(benchmark::State& state) {
  RunUpwardBenchmark(state, "//*/", "parent::*");
}
void BM_DagAncestorFromAll(benchmark::State& state) {
  RunUpwardBenchmark(state, "//*/", "ancestor::*");
}
void BM_DagFollowingSibling(benchmark::State& state) {
  RunAxisBenchmark(state, "following-sibling::*");
}
void BM_DagFollowing(benchmark::State& state) {
  RunAxisBenchmark(state, "following::*");
}
BENCHMARK(BM_DagChild);
BENCHMARK(BM_DagDescendant);
BENCHMARK(BM_DagChildFromRoot);
BENCHMARK(BM_DagChildFromItem);
BENCHMARK(BM_DagChildFromAll);
BENCHMARK(BM_DagDescendantFromItem);
BENCHMARK(BM_DagParent);
BENCHMARK(BM_DagAncestor);
BENCHMARK(BM_DagParentFromText);
BENCHMARK(BM_DagAncestorFromText);
BENCHMARK(BM_DagParentFromAll);
BENCHMARK(BM_DagAncestorFromAll);
BENCHMARK(BM_DagFollowingSibling);
BENCHMARK(BM_DagFollowing);

void RunTreeBenchmark(benchmark::State& state, const char* axis_query) {
  const MicroState& micro = MicroState::Get();
  const algebra::QueryPlan plan =
      *algebra::CompileString(std::string("//item/") + axis_query);
  uint64_t selected = 0;
  for (auto _ : state) {
    const DynamicBitset result = *baseline::Evaluate(micro.labeled, plan);
    selected += result.Count();
    benchmark::DoNotOptimize(selected);
  }
}

void BM_TreeChild(benchmark::State& state) {
  RunTreeBenchmark(state, "*");
}
void BM_TreeDescendant(benchmark::State& state) {
  RunTreeBenchmark(state, "descendant::*");
}
void BM_TreeParent(benchmark::State& state) {
  RunTreeBenchmark(state, "parent::*");
}
void BM_TreeAncestor(benchmark::State& state) {
  RunTreeBenchmark(state, "ancestor::*");
}
void BM_TreeFollowingSibling(benchmark::State& state) {
  RunTreeBenchmark(state, "following-sibling::*");
}
void BM_TreeFollowing(benchmark::State& state) {
  RunTreeBenchmark(state, "following::*");
}
BENCHMARK(BM_TreeChild);
BENCHMARK(BM_TreeDescendant);
BENCHMARK(BM_TreeParent);
BENCHMARK(BM_TreeAncestor);
BENCHMARK(BM_TreeFollowingSibling);
BENCHMARK(BM_TreeFollowing);

void BM_Compress(benchmark::State& state) {
  corpus::GenerateOptions gen;
  gen.target_nodes = static_cast<uint64_t>(state.range(0));
  gen.seed = 42;
  const std::string xml = corpus::Dblp().Generate(gen);
  for (auto _ : state) {
    CompressOptions options;
    options.mode = LabelMode::kAllTags;
    Instance inst = *CompressXml(xml, options);
    benchmark::DoNotOptimize(inst.vertex_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_Compress)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_Minimize(benchmark::State& state) {
  const MicroState& micro = MicroState::Get();
  for (auto _ : state) {
    Instance minimal = *Minimize(micro.instance);
    benchmark::DoNotOptimize(minimal.vertex_count());
  }
}
BENCHMARK(BM_Minimize);

void BM_SelectedTreeCount(benchmark::State& state) {
  const MicroState& micro = MicroState::Get();
  uint64_t total = 0;
  for (auto _ : state) {
    total += SelectedTreeNodeCount(micro.instance, micro.src);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_SelectedTreeCount);

}  // namespace
}  // namespace xcq

BENCHMARK_MAIN();
