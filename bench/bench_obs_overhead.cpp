// Telemetry overhead on the end-to-end pipeline: the same NAS-LU
// compile+analyze run with observability disabled (the shipping default, one
// predicted branch per event) and enabled (counters + histograms + span
// timeline). Writes the unified BENCH_obs_overhead.json record
// (ara.bench.v1) so the perf trajectory of the obs subsystem stays
// machine-readable across versions.
//
// The dormant-cost contract cannot be measured directly — there is no build
// without the ledger compiled in — so the gate works from a projection:
// microbench the disabled per-probe cost (one predicted branch each for a
// counter bump, a histogram record, and a provenance record), multiply by
// the number of probes a real run fires, and compare against the disabled
// run's wall time. `--gate PCT` exits 1 when that projection reaches PCT%
// (the perf-smoke ctest entry uses 5).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_common.hpp"
#include "obs/histogram.hpp"
#include "obs/provenance.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"

namespace {

/// Median-of-repeats wall time for one full analyze() pass on NAS LU.
double analyze_seconds(ara::driver::Compiler& cc, int repeats) {
  double best = 1e9;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = cc.analyze();
    benchmark::DoNotOptimize(result.rows.size());
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

void reset_ledger() {
  ara::obs::StatsRegistry::instance().reset();
  ara::obs::HistogramRegistry::instance().reset();
  ara::obs::Timeline::instance().clear();
}

/// The disabled cost of one ledger probe, averaged over counter bumps,
/// histogram records and provenance records (each is a load + predicted
/// branch when dormant).
double disabled_probe_ns() {
  static ara::obs::Counter probe_counter{"bench.obs_probe", "dormant-cost probe"};
  ARA_HISTOGRAM(probe_hist, "bench.obs_probe_ns", "dormant-cost probe", "ns");
  ara::obs::set_enabled(false);
  constexpr int kIters = 1 << 21;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    probe_counter.bump();
    probe_hist.record(1);
    ara::obs::prov_record(ara::obs::CauseKind::NonAffineSubscript, {}, 0, {});
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double total_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  return total_ns / (3.0 * kIters);
}

/// Prints the overhead report, writes BENCH_obs_overhead.json, and returns
/// the projected disabled-ledger overhead percentage (the --gate metric).
double print_reproduction(const char* argv0) {
  auto cc = ara::bench::compile_lu();

  ara::obs::set_enabled(false);
  const double off_s = analyze_seconds(*cc, 9);

  ara::obs::set_enabled(true);
  reset_ledger();
  const double on_s = analyze_seconds(*cc, 9);

  // Ledger volume of one enabled run: counters count every bump (the value
  // IS the probe count), histograms their samples, spans fire two probes
  // (begin + end). The last of the 9 timed repeats left this state behind.
  std::uint64_t probes = 0;
  const auto counter_snap = ara::obs::StatsRegistry::instance().snapshot(true);
  for (const auto& c : counter_snap) probes += c.value;
  std::uint64_t hist_samples = 0;
  for (const auto& h : ara::obs::HistogramRegistry::instance().snapshot(true)) {
    hist_samples += h.count;
  }
  probes += hist_samples;
  const std::size_t spans = ara::obs::Timeline::instance().completed().size();
  probes += 2 * static_cast<std::uint64_t>(spans);
  // analyze_seconds clears nothing between repeats; normalize to one run.
  probes /= 9;
  ara::obs::set_enabled(false);
  reset_ledger();

  const double probe_ns = disabled_probe_ns();
  const double projected_pct =
      off_s > 0.0 ? probe_ns * static_cast<double>(probes) / (off_s * 1e9) * 100.0 : 0.0;
  const double overhead_pct = off_s > 0.0 ? (on_s - off_s) / off_s * 100.0 : 0.0;

  std::printf("=== Telemetry overhead (analyze() on NAS LU, best of 9) ===\n");
  std::printf("  telemetry off:       %.3f ms\n", off_s * 1e3);
  std::printf("  telemetry on:        %.3f ms  (%zu counters, %zu spans, %llu samples)\n",
              on_s * 1e3, counter_snap.size(), spans,
              static_cast<unsigned long long>(hist_samples));
  std::printf("  enabled overhead:    %+.2f %%\n", overhead_pct);
  std::printf("  dormant probe cost:  %.3f ns  x %llu probes/run\n", probe_ns,
              static_cast<unsigned long long>(probes));
  std::printf("  projected disabled overhead: %.4f %%\n\n", projected_pct);

  ara::bench::BenchJson json("obs_overhead", "lu");
  json.metric("off_ms", off_s * 1e3, "ms", "lower");
  json.metric("on_ms", on_s * 1e3, "ms", "lower");
  json.metric("enabled_overhead_pct", overhead_pct, "pct", "neutral");
  json.metric("dormant_probe_ns", probe_ns, "ns", "lower");
  json.metric("probes_per_run", static_cast<double>(probes), "count", "neutral");
  json.metric("projected_disabled_overhead_pct", projected_pct, "pct", "lower");
  json.metric("counters", static_cast<double>(counter_snap.size()), "count", "exact");
  json.metric("spans", static_cast<double>(spans), "count", "exact");
  json.write_next_to(argv0);
  return projected_pct;
}

void BM_AnalyzeTelemetryOff(benchmark::State& state) {
  auto cc = ara::bench::compile_lu();
  ara::obs::set_enabled(false);
  for (auto _ : state) {
    auto result = cc->analyze();
    benchmark::DoNotOptimize(result.rows.size());
  }
}
BENCHMARK(BM_AnalyzeTelemetryOff)->Unit(benchmark::kMillisecond);

void BM_AnalyzeTelemetryOn(benchmark::State& state) {
  auto cc = ara::bench::compile_lu();
  ara::obs::set_enabled(true);
  for (auto _ : state) {
    // Reset per iteration so the timeline does not grow without bound.
    ara::obs::Timeline::instance().clear();
    auto result = cc->analyze();
    benchmark::DoNotOptimize(result.rows.size());
  }
  ara::obs::set_enabled(false);
  reset_ledger();
}
BENCHMARK(BM_AnalyzeTelemetryOn)->Unit(benchmark::kMillisecond);

void BM_CounterBumpDisabled(benchmark::State& state) {
  // The per-event cost the macro promises: one load + predicted branch.
  static ara::obs::Counter counter{"bench.obs_bump", "overhead probe"};
  ara::obs::set_enabled(false);
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) counter.bump();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CounterBumpDisabled);

void BM_CounterBumpEnabled(benchmark::State& state) {
  static ara::obs::Counter counter{"bench.obs_bump_on", "overhead probe"};
  ara::obs::set_enabled(true);
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) counter.bump();
  }
  ara::obs::set_enabled(false);
  ara::obs::StatsRegistry::instance().reset();
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CounterBumpEnabled);

void BM_HistogramRecordDisabled(benchmark::State& state) {
  ARA_HISTOGRAM(hist, "bench.obs_hist_off", "overhead probe", "ns");
  ara::obs::set_enabled(false);
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) hist.record(static_cast<std::uint64_t>(i));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_HistogramRecordDisabled);

void BM_HistogramRecordEnabled(benchmark::State& state) {
  ARA_HISTOGRAM(hist, "bench.obs_hist_on", "overhead probe", "ns");
  ara::obs::set_enabled(true);
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) hist.record(static_cast<std::uint64_t>(i));
  }
  ara::obs::set_enabled(false);
  ara::obs::HistogramRegistry::instance().reset();
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_HistogramRecordEnabled);

}  // namespace

int main(int argc, char** argv) {
  double gate = -1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0 && i + 1 < argc) {
      gate = std::atof(argv[i + 1]);
      for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  const bool json_only = ara::bench::consume_flag(&argc, argv, "--json-only");
  const double projected = print_reproduction(argv[0]);
  if (gate >= 0.0) {
    if (projected >= gate) {
      std::fprintf(stderr, "FAIL: projected disabled-ledger overhead %.4f%% >= gate %.1f%%\n",
                   projected, gate);
      return 1;
    }
    std::printf("gate ok: projected disabled-ledger overhead %.4f%% < %.1f%%\n", projected,
                gate);
  }
  if (json_only) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
