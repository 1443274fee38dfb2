// §III ablation: "Fourier-Motzkin linear system solver, which has worst case
// exponential time, is needed to compare Regions". This bench measures FM
// feasibility time against variable and constraint counts — the practical
// cost of the Regions method's precision, and one of the design trade-offs
// DESIGN.md calls out (our dimension variables stay few, so real queries sit
// on the flat part of the curve).
#include <benchmark/benchmark.h>

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "regions/linsys.hpp"

namespace {

using namespace ara::regions;

/// Dense random system: every constraint touches every variable, the shape
/// that triggers FM's quadratic-per-step growth.
LinSystem dense_system(std::size_t nvars, std::size_t ncons, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::int64_t> coef(-3, 3);
  std::uniform_int_distribution<std::int64_t> rhs(0, 50);
  LinSystem sys;
  for (std::size_t v = 0; v < nvars; ++v) {
    const std::string name = "x" + std::to_string(v);
    sys.add(make_ge(LinExpr::var(name), LinExpr(0)));
    sys.add(make_le(LinExpr::var(name), LinExpr(40)));
  }
  for (std::size_t c = 0; c < ncons; ++c) {
    LinExpr e(-rhs(rng));
    for (std::size_t v = 0; v < nvars; ++v) {
      e += LinExpr::var("x" + std::to_string(v), coef(rng));
    }
    sys.add(Constraint{e, Constraint::Rel::Le0});
  }
  return sys;
}

/// FM-stress corpus: the deep coupled-subscript / many-ivar shapes the fuzz
/// grid generates, plus the cross-procedure repetition pattern (identical
/// summaries analyzed again and again) that the Regions pipeline produces.
/// Deterministic by construction — the corpus inventory metrics are exact
/// reproducibility anchors for the perf gate.
std::vector<LinSystem> fm_stress_corpus() {
  std::vector<LinSystem> corpus;
  // (a) Dense random systems (every constraint touches every variable).
  for (std::size_t nvars = 3; nvars <= 6; ++nvars) {
    for (unsigned seed = 1; seed <= 3; ++seed) {
      corpus.push_back(dense_system(nvars, 4, seed));
    }
  }
  // (b) Triangular chains x0 <= x1 <= ... <= xk with box bounds and one
  // coupling row — the imperfect-nest shape (inner bounds reading outer
  // ivars) that drives elimination-order sensitivity.
  for (std::size_t depth = 4; depth <= 7; ++depth) {
    LinSystem sys;
    LinExpr coupling;
    for (std::size_t v = 0; v < depth; ++v) {
      const std::string name = "i" + std::to_string(v);
      sys.add(make_ge(LinExpr::var(name), LinExpr(1)));
      sys.add(make_le(LinExpr::var(name), LinExpr(60)));
      if (v > 0) {
        sys.add(make_le(LinExpr::var("i" + std::to_string(v - 1)), LinExpr::var(name)));
      }
      coupling += LinExpr::var(name, v % 2 == 0 ? 1 : -1);
    }
    sys.add(make_le(coupling, LinExpr(10)));
    corpus.push_back(std::move(sys));
  }
  // (c) Coupled-subscript equality systems: the dependence-test shape
  // (two renamed instances constrained equal), which FM resolves through
  // the equality-substitution fast path and pair combination.
  for (unsigned seed = 1; seed <= 6; ++seed) {
    std::mt19937 rng(seed * 77);
    std::uniform_int_distribution<std::int64_t> coef(-2, 2);
    LinSystem sys;
    for (const char* suffix : {"!1", "!2"}) {
      for (std::size_t v = 0; v < 3; ++v) {
        const std::string name = "i" + std::to_string(v) + suffix;
        sys.add(make_ge(LinExpr::var(name), LinExpr(0)));
        sys.add(make_le(LinExpr::var(name), LinExpr(30)));
      }
    }
    for (std::size_t d = 0; d < 2; ++d) {
      LinExpr diff;
      for (std::size_t v = 0; v < 3; ++v) {
        const std::int64_t c = coef(rng);
        diff += LinExpr::var("i" + std::to_string(v) + "!1", c);
        diff -= LinExpr::var("i" + std::to_string(v) + "!2", c == 0 ? 1 : c);
      }
      diff += LinExpr(coef(rng));
      sys.add(Constraint{std::move(diff), Constraint::Rel::Eq0});
    }
    sys.add(make_le(LinExpr::var("i0!1") + LinExpr(1), LinExpr::var("i0!2")));
    corpus.push_back(std::move(sys));
  }
  // (d) The cross-procedure repetition pattern: each distinct system above
  // re-appears three more times, the way identical callee summaries are
  // re-projected at every call site.
  const std::size_t distinct = corpus.size();
  for (int copy = 0; copy < 3; ++copy) {
    for (std::size_t i = 0; i < distinct; ++i) corpus.push_back(corpus[i]);
  }
  return corpus;
}

/// Runs the stress corpus once: every system answers feasible(), then the
/// lowest-named variable's const_bounds (the to_region projection pattern).
/// Returns (feasible count, bounded count) — exact anchors.
std::pair<std::size_t, std::size_t> run_stress_pass(const std::vector<LinSystem>& corpus) {
  std::size_t feasible = 0;
  std::size_t bounded = 0;
  for (const LinSystem& sys : corpus) {
    if (sys.feasible()) ++feasible;
    const auto vars = sys.variables();
    if (!vars.empty()) {
      const auto b = sys.const_bounds(vars.front());
      if (b.lower && b.upper) ++bounded;
    }
  }
  return {feasible, bounded};
}

/// A row on plain standard containers: (variable, coefficient) pairs sorted
/// by variable, and a constant. It does LinExpr's arithmetic with none of
/// LinExpr's code.
struct PlainRow {
  std::vector<std::pair<std::uint32_t, std::int64_t>> terms;
  std::int64_t constant = 0;

  friend PlainRow operator*(PlainRow r, std::int64_t k) {
    r.constant *= k;
    for (auto& term : r.terms) term.second *= k;
    return r;
  }

  /// r + s, keeping r's terms sorted and free of zero coefficients.
  friend PlainRow operator+(PlainRow r, const PlainRow& s) {
    r.constant += s.constant;
    for (const auto& [var, coef] : s.terms) {
      const auto it = std::lower_bound(r.terms.begin(), r.terms.end(), var,
                                       [](const auto& t, std::uint32_t v) { return t.first < v; });
      if (it == r.terms.end() || it->first != var) {
        r.terms.insert(it, {var, coef});
      } else if ((it->second += coef) == 0) {
        r.terms.erase(it);
      }
    }
    return r;
  }
};

/// A row with its constant and coefficients stored inline, 96 bytes like a
/// Constraint.
struct DenseRow {
  std::int64_t coefs[12] = {};
  friend bool operator==(const DenseRow&, const DenseRow&) = default;
};

/// Fixed reference work, part one: the row arithmetic of three large
/// elimination steps, every pair of 128 "upper" and 128 "lower"
/// six-variable rows scaled and summed into a new row, with one heap block
/// per row as a six-term LinExpr has. Returns the last step's rows.
std::vector<PlainRow> arithmetic_work() {
  std::uint64_t x = 1;
  const auto next = [&x] { return x = x * 6364136223846793005ULL + 1442695040888963407ULL; };
  std::vector<PlainRow> rows(256);
  for (PlainRow& row : rows) {
    row.constant = static_cast<std::int64_t>(next() >> 58);
    for (std::uint32_t v = 0; v < 6; ++v) {
      row.terms.emplace_back(v, static_cast<std::int64_t>(next() >> 61) + 1);
    }
  }
  std::vector<PlainRow> last;
  for (int step = 0; step < 3; ++step) {
    std::vector<PlainRow> combined;
    for (int a = 0; a < 128; ++a) {
      for (int b = 128; b < 256; ++b) combined.push_back(rows[a] * (3 + step) + rows[b] * 2);
    }
    last = std::move(combined);
  }
  return last;
}

/// Part two: the rows are copied into a table of DenseRows, which is
/// searched linearly 512 times for a row it does not hold, a streaming scan
/// like the duplicate check of LinSystem::simplify that dominates the cold
/// 6x6 call.
std::uint64_t scan_work(const std::vector<PlainRow>& rows) {
  std::vector<DenseRow> table(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table[i].coefs[0] = rows[i].constant;
    for (const auto& [var, coef] : rows[i].terms) table[i].coefs[1 + var] = coef;
  }
  std::uint64_t total = 0;
  for (std::int64_t p = 0; p < 512; ++p) {
    DenseRow absent;
    absent.coefs[0] = -1 - p;  // every row's constant is >= 0
    total += std::find(table.begin(), table.end(), absent) - table.begin();
  }
  return total;
}

double ms_of(const std::function<void()>& work) {
  const auto t0 = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

void print_reproduction(const char* argv0) {
  ara::bench::BenchJson json("fm_scaling", "dense-random");
  std::printf("=== FM scaling (the §III cost note) ===\n");
  std::printf("  feasibility of dense systems; constraints grow after each elimination\n");
  std::printf("  %-8s %-12s %-14s\n", "vars", "constraints", "feasible?");
  for (std::size_t nvars : {2u, 3u, 4u, 5u, 6u}) {
    const LinSystem sys = dense_system(nvars, 4, 7);
    const bool feasible = sys.feasible();
    std::printf("  %-8zu %-12zu %-14s\n", nvars, sys.size(), feasible ? "yes" : "no");
    // Fixed seed => the system and its verdict are exact reproducibility
    // anchors; only the timing below is a measurement.
    json.metric("feasible_vars" + std::to_string(nvars), feasible ? 1.0 : 0.0, "bool",
                "exact");
  }

  // FM-stress corpus: the perf-smoke gate's throughput anchor. Inventory
  // metrics are exact (any drift is a behavior change); the timing ratios
  // are the regression gate proper, and the millisecond rows (fastest run)
  // stay in the record as neutral information.
  const LinSystem big = dense_system(6, 6, 7);
  const std::vector<LinSystem> corpus = fm_stress_corpus();
  const auto [feasible_n, bounded_n] = run_stress_pass(corpus);  // warm-up + anchors
  constexpr int kStressPasses = 8;
  // Rounds of reference, 6x6, reference, stress, reference, ...: each FM
  // timing is divided by the mean of the reference timings just before and
  // after it, so contention that slows the whole process for a while
  // cancels out. The reference runs no ara::regions code, so an FM or
  // LinExpr regression does not slow it. The 6x6 call is divided by the
  // whole reference, whose scan slows down with it when the host's caches
  // are busy; the stress loop, bound by allocation and arithmetic (memo
  // hits copy whole systems), by the arithmetic part alone.
  constexpr int kTimingRounds = 21;
  std::vector<double> feasible_ms, stress_ms, arithmetic_ms, reference_ms;
  std::vector<double> feasible_ratio, stress_ratio;
  const auto time_reference = [&] {
    std::vector<PlainRow> rows;
    arithmetic_ms.push_back(ms_of([&] { rows = arithmetic_work(); }));
    reference_ms.push_back(arithmetic_ms.back() +
                           ms_of([&] { benchmark::DoNotOptimize(scan_work(rows)); }));
  };
  const auto around = [](const std::vector<double>& v) {
    return (v.back() + v[v.size() - 2]) / 2.0;
  };
  time_reference();
  for (int round = 0; round < kTimingRounds; ++round) {
    feasible_ms.push_back(ms_of([&] {
      ara::regions::fm_memo_clear();  // one cold call, as the 6x6 row always measured
      benchmark::DoNotOptimize(big.feasible());
    }));
    run_stress_pass(corpus);  // re-warm the memo, untimed, as before the first round
    time_reference();
    feasible_ratio.push_back(feasible_ms.back() / around(reference_ms));
    stress_ms.push_back(ms_of([&] {
      for (int pass = 0; pass < kStressPasses; ++pass) {
        const auto again = run_stress_pass(corpus);
        benchmark::DoNotOptimize(again.first + again.second);
      }
    }));
    time_reference();
    stress_ratio.push_back(stress_ms.back() / around(arithmetic_ms));
  }
  const auto fastest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  const double per_sec = corpus.size() * kStressPasses / (fastest(stress_ms) / 1000.0);
  std::printf("  FM-stress corpus: %zu systems, %zu feasible, %zu bounded, %.1f ms "
              "(%.0f systems/sec)\n",
              corpus.size(), feasible_n, bounded_n, fastest(stress_ms), per_sec);
  std::printf("  reference work %.2f ms (arithmetic %.2f ms); 6x6 / reference %.3f, "
              "stress / arithmetic %.3f\n",
              fastest(reference_ms), fastest(arithmetic_ms), median(feasible_ratio),
              median(stress_ratio));
  json.metric("feasible6x6_ms", fastest(feasible_ms), "ms", "neutral");
  json.metric("fm_stress_systems", static_cast<double>(corpus.size()), "count", "exact");
  json.metric("fm_stress_feasible", static_cast<double>(feasible_n), "count", "exact");
  json.metric("fm_stress_bounded", static_cast<double>(bounded_n), "count", "exact");
  json.metric("fm_stress_ms", fastest(stress_ms), "ms", "neutral");
  json.metric("fm_stress_sys_per_sec", per_sec, "count", "neutral");
  json.metric("reference_ms", fastest(reference_ms), "ms", "neutral");
  json.metric("arithmetic_reference_ms", fastest(arithmetic_ms), "ms", "neutral");
  json.metric("feasible6x6_ratio", median(feasible_ratio), "ratio", "lower");
  json.metric("fm_stress_ratio", median(stress_ratio), "ratio", "lower");
  json.write_next_to(argv0);
  std::printf("  (timings below show the super-linear growth in vars)\n\n");
}

void BM_FmFeasible(benchmark::State& state) {
  const std::size_t nvars = static_cast<std::size_t>(state.range(0));
  const std::size_t ncons = static_cast<std::size_t>(state.range(1));
  const LinSystem sys = dense_system(nvars, ncons, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.feasible());
  }
}
BENCHMARK(BM_FmFeasible)
    ->ArgsProduct({{2, 3, 4, 5, 6}, {4, 6}})
    ->Unit(benchmark::kMillisecond);

void BM_FmEliminateOne(benchmark::State& state) {
  const LinSystem sys = dense_system(static_cast<std::size_t>(state.range(0)), 6, 11);
  for (auto _ : state) {
    auto out = sys.eliminated("x0");
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_FmEliminateOne)->DenseRange(2, 6, 2)->Unit(benchmark::kMicrosecond);

void BM_ConstBounds(benchmark::State& state) {
  const LinSystem sys = dense_system(static_cast<std::size_t>(state.range(0)), 6, 3);
  for (auto _ : state) {
    auto b = sys.const_bounds("x0");
    benchmark::DoNotOptimize(b.lower.has_value());
  }
}
BENCHMARK(BM_ConstBounds)->DenseRange(2, 6, 2)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Keep freed heap pages mapped, so every timed repetition after the first
  // measures the algorithm rather than the kernel's page-fault path.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  const bool json_only = ara::bench::consume_flag(&argc, argv, "--json-only");
  print_reproduction(argv[0]);
  if (json_only) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
