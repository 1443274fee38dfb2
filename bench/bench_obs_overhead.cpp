// Telemetry overhead on the end-to-end pipeline: the same NAS-LU
// compile+analyze run with observability disabled (the shipping default, one
// predicted branch per event) and enabled (counters + histograms + span
// timeline), timed in alternating off/on rounds so both sides see the same
// host phases; the enabled overhead is the median of the per-round
// ratios. Writes the unified BENCH_obs_overhead.json record
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

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "obs/histogram.hpp"
#include "obs/provenance.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"

namespace {

/// Alternating off/on rounds timed by print_reproduction.
constexpr int kRounds = 21;

/// Wall time of one full analyze() pass on NAS LU with telemetry `on`.
double analyze_seconds(const ara::driver::Compiler& cc, bool on) {
  ara::obs::set_enabled(on);
  const auto t0 = std::chrono::steady_clock::now();
  auto result = cc.analyze();
  benchmark::DoNotOptimize(result.rows.size());
  const auto t1 = std::chrono::steady_clock::now();
  ara::obs::set_enabled(false);
  return std::chrono::duration<double>(t1 - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
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
  analyze_seconds(*cc, false);  // warm-up, untimed
  analyze_seconds(*cc, true);

  // Each round times one run of each, the first side alternating, so a
  // slow phase of a shared host lands on both sides of its ratio.
  reset_ledger();
  std::vector<double> off_times;
  std::vector<double> on_times;
  std::vector<double> ratios;
  for (int round = 0; round < kRounds; ++round) {
    double off = 0.0;
    double on = 0.0;
    if (round % 2 == 0) {
      off = analyze_seconds(*cc, false);
      on = analyze_seconds(*cc, true);
    } else {
      on = analyze_seconds(*cc, true);
      off = analyze_seconds(*cc, false);
    }
    off_times.push_back(off);
    on_times.push_back(on);
    if (off > 0.0) ratios.push_back(on / off);
  }
  const double off_s = median(off_times);
  const double on_s = median(on_times);

  // Ledger volume of one enabled run: counters count every bump (the value
  // IS the probe count), histograms their samples, spans fire two probes
  // (begin + end). The enabled rounds left this state behind.
  std::uint64_t probes = 0;
  const auto counter_snap = ara::obs::StatsRegistry::instance().snapshot(true);
  for (const auto& c : counter_snap) probes += c.value;
  std::uint64_t hist_samples = 0;
  for (const auto& h : ara::obs::HistogramRegistry::instance().snapshot(true)) {
    hist_samples += h.count;
  }
  probes += hist_samples;
  std::size_t spans = ara::obs::Timeline::instance().completed().size();
  probes += 2 * static_cast<std::uint64_t>(spans);
  // Nothing is cleared between rounds; normalize to one run.
  probes /= kRounds;
  hist_samples /= kRounds;
  spans /= kRounds;
  reset_ledger();

  const double probe_ns = disabled_probe_ns();
  const double projected_pct =
      off_s > 0.0 ? probe_ns * static_cast<double>(probes) / (off_s * 1e9) * 100.0 : 0.0;
  const double overhead_pct = ratios.empty() ? 0.0 : (median(ratios) - 1.0) * 100.0;

  std::printf("=== Telemetry overhead (analyze() on NAS LU, median of %d off/on rounds) ===\n",
              kRounds);
  std::printf("  telemetry off:       %.3f ms\n", off_s * 1e3);
  std::printf("  telemetry on:        %.3f ms  (%zu counters, %zu spans, %llu samples)\n",
              on_s * 1e3, counter_snap.size(), spans,
              static_cast<unsigned long long>(hist_samples));
  std::printf("  enabled overhead:    %+.2f %%  (median round ratio)\n", overhead_pct);
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
