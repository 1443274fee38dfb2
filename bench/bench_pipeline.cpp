// End-to-end pipeline throughput (Fig 4 / Algorithm 1): front ends -> H
// WHIRL -> call-graph traversal -> region extraction -> .rgn emission, on
// the NAS-LU workload — the path a user exercises with
// `-IPA:array_section:array_summary -dragon` (§V-B step 1-2).
#include <benchmark/benchmark.h>

#include <chrono>
#include <sstream>

#include "bench_common.hpp"
#include "cfg/cfg.hpp"
#include "frontend/compile.hpp"

namespace {

void print_reproduction(const char* argv0) {
  auto cc = ara::bench::compile_lu();

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = cc->analyze();
  const double analyze_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();

  std::size_t wn_nodes = 0;
  std::size_t source_lines = 0;
  for (const auto& p : cc->program().procedures) wn_nodes += p.tree->tree_size();
  const auto& sm = cc->program().sources;
  for (ara::FileId f = 1; f <= sm.file_count(); ++f) source_lines += sm.line_count(f);
  const std::size_t rgn_bytes = ara::rgn::write_rgn(result.rows).size();

  std::printf("=== Pipeline inventory (Algorithm 1 on NAS LU) ===\n");
  std::printf("  source files:        %zu\n", sm.file_count());
  std::printf("  source lines:        %zu\n", source_lines);
  std::printf("  procedures:          %zu\n", result.callgraph.size());
  std::printf("  WHIRL nodes:         %zu\n", wn_nodes);
  std::printf("  access records:      %zu\n", result.records.size());
  std::printf("  .rgn rows:           %zu\n", result.rows.size());
  std::printf("  .rgn bytes:          %zu\n", rgn_bytes);
  std::printf("\n");

  // The inventory metrics are exact (a changed row count is a behavior
  // change, not noise); only the wall time is a measurement.
  ara::bench::BenchJson json("pipeline", "lu");
  json.metric("source_files", static_cast<double>(sm.file_count()), "count", "exact");
  json.metric("source_lines", static_cast<double>(source_lines), "count", "exact");
  json.metric("procedures", static_cast<double>(result.callgraph.size()), "count", "exact");
  json.metric("wn_nodes", static_cast<double>(wn_nodes), "count", "exact");
  json.metric("access_records", static_cast<double>(result.records.size()), "count", "exact");
  json.metric("rgn_rows", static_cast<double>(result.rows.size()), "count", "exact");
  json.metric("rgn_bytes", static_cast<double>(rgn_bytes), "count", "exact");
  json.metric("analyze_ms", analyze_ms, "ms", "lower");
  json.write_next_to(argv0);
}

void BM_FrontEndOnly(benchmark::State& state) {
  // Parse + sema + lowering, no analysis.
  std::vector<std::pair<std::string, std::string>> sources;
  {
    auto cc = std::make_unique<ara::driver::Compiler>();
    for (const auto& f : ara::bench::lu_sources()) cc->add_file(f);
    const auto& sm = cc->program().sources;
    for (ara::FileId f = 1; f <= sm.file_count(); ++f) {
      sources.emplace_back(sm.name(f), sm.text(f));
    }
  }
  for (auto _ : state) {
    ara::ir::Program program;
    ara::DiagnosticEngine diags(&program.sources);
    for (const auto& [name, text] : sources) {
      program.sources.add(name, text, ara::Language::Fortran);
    }
    const bool ok = ara::fe::compile_program(program, diags);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_FrontEndOnly)->Unit(benchmark::kMillisecond);

void BM_AnalysisOnly(benchmark::State& state) {
  auto cc = ara::bench::compile_lu();
  for (auto _ : state) {
    auto result = cc->analyze();
    benchmark::DoNotOptimize(result.rows.size());
  }
}
BENCHMARK(BM_AnalysisOnly)->Unit(benchmark::kMillisecond);

void BM_IntraproceduralOnly(benchmark::State& state) {
  // Ablation: IPL without the IPA propagation (-IPA off).
  auto cc = ara::bench::compile_lu();
  ara::ipa::AnalyzeOptions opts;
  opts.interprocedural = false;
  for (auto _ : state) {
    auto result = cc->analyze(opts);
    benchmark::DoNotOptimize(result.rows.size());
  }
}
BENCHMARK(BM_IntraproceduralOnly)->Unit(benchmark::kMillisecond);

void BM_CfgConstruction(benchmark::State& state) {
  auto cc = ara::bench::compile_lu();
  for (auto _ : state) {
    auto cfgs = ara::cfg::build_all(cc->program());
    benchmark::DoNotOptimize(cfgs.size());
  }
}
BENCHMARK(BM_CfgConstruction)->Unit(benchmark::kMicrosecond);

void BM_ExportDragonFiles(benchmark::State& state) {
  auto cc = ara::bench::compile_lu();
  const auto result = cc->analyze();
  for (auto _ : state) {
    std::ostringstream sink;
    sink << ara::rgn::write_rgn(result.rows);
    sink << ara::rgn::write_dgn(ara::ipa::dgn_project(cc->program(), result.callgraph, "lu"));
    sink << ara::cfg::write_cfg(ara::cfg::build_all(cc->program()));
    benchmark::DoNotOptimize(sink.str().size());
  }
}
BENCHMARK(BM_ExportDragonFiles)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool json_only = ara::bench::consume_flag(&argc, argv, "--json-only");
  print_reproduction(argv[0]);
  if (json_only) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
