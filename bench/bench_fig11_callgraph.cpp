// Fig 11 reproduction: "the LU benchmark has 24 procedures" — the Dragon
// call graph generated when the user loads the .dgn project, exported here
// as Graphviz DOT, plus the IPA call-graph construction timing.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "dragon/dot.hpp"

namespace {

void print_reproduction() {
  auto cc = ara::bench::compile_lu();
  const auto result = cc->analyze();

  std::printf("=== Fig 11: Dragon call graph for NAS LU ===\n");
  ara::bench::report("procedure count", "24", std::to_string(result.callgraph.size()));
  std::size_t roots = 0;
  for (const auto& n : result.callgraph.nodes()) roots += n.is_root ? 1 : 0;
  ara::bench::report("entry nodes", "1", std::to_string(roots));
  std::printf("  call-graph edges: %zu\n", result.callgraph.edge_count());

  std::printf("  procedures:");
  for (const auto& node : result.callgraph.nodes()) {
    std::printf(" %s", cc->program().symtab.st(node.proc_st).name.c_str());
  }
  const auto project = ara::ipa::dgn_project(cc->program(), result.callgraph, "lu");
  const std::string dot = ara::dragon::callgraph_dot(project);
  std::printf("\n  DOT export: %zu bytes (starts \"digraph\"): %s\n\n", dot.size(),
              dot.rfind("digraph", 0) == 0 ? "yes" : "NO");
}

void BM_BuildCallGraph(benchmark::State& state) {
  auto cc = ara::bench::compile_lu();
  for (auto _ : state) {
    auto cg = ara::ipa::CallGraph::build(cc->program());
    benchmark::DoNotOptimize(cg.edge_count());
  }
}
BENCHMARK(BM_BuildCallGraph)->Unit(benchmark::kMicrosecond);

void BM_DotExport(benchmark::State& state) {
  auto cc = ara::bench::compile_lu();
  const auto result = cc->analyze();
  const auto project = ara::ipa::dgn_project(cc->program(), result.callgraph, "lu");
  for (auto _ : state) {
    auto dot = ara::dragon::callgraph_dot(project);
    benchmark::DoNotOptimize(dot.size());
  }
}
BENCHMARK(BM_DotExport)->Unit(benchmark::kMicrosecond);

void BM_BottomUpOrder(benchmark::State& state) {
  auto cc = ara::bench::compile_lu();
  const auto cg = ara::ipa::CallGraph::build(cc->program());
  for (auto _ : state) {
    auto order = cg.bottom_up();
    benchmark::DoNotOptimize(order.size());
  }
}
BENCHMARK(BM_BottomUpOrder)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
