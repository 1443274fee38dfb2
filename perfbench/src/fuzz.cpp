#include <cstdio>

#include "difftest/generator.hpp"
#include "difftest/oracle.hpp"
#include "driver/compiler.hpp"
#include "interp/interp.hpp"
#include "layers.hpp"
#include "obs/timeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace dt = ara::difftest;

/// Programs the traced run's exact counts are taken over.
constexpr std::size_t kCountedPrograms = 100;

/// Programs the set-up verifies: the campaign's first ones.
constexpr std::uint64_t kSetupPrograms = 200;

/// One timed operation is a round of four programs, one per language and
/// grid: single programs of the two grids differ several-fold in cost, so a
/// per-program median would sit between the two clusters and jump with
/// small shifts in the mix.
constexpr std::uint64_t kRound = 4;

/// Program `i` of the campaign: C and Fortran alternate, and every other
/// pair uses the stress-FM grid (arafuzz --stress-fm).
dt::GenOptions program_options(std::uint64_t seed, std::uint64_t i) {
  dt::GenOptions g;
  g.seed = mix_seed(seed, (std::uint64_t{1} << 32) + i);
  g.lang = i % 2 == 0 ? ara::Language::C : ara::Language::Fortran;
  if ((i / 2) % 2 == 1) {
    g.max_loop_depth = 5;
    g.max_loop_vars = 6;
    g.coupled_pct = 60;
    g.stmts = 6;
  }
  return g;
}

std::string verdict(std::uint64_t i, const std::string& kind, const std::string& detail) {
  return "fuzz program " + std::to_string(i) + ": " + kind + " " + detail;
}

/// One program's oracle verdict; any violation, provenance included, is a
/// failure.
void check_sound(std::uint64_t i, const dt::DiffReport& rep, Tally& tally) {
  tally.check(rep.sound(),
              verdict(i, rep.violations.empty() ? "unsound" : rep.violations[0].kind, rep.error));
}

/// The fuzz workload's own set-up: the campaign's first kSetupPrograms
/// programs, each generated twice (identical bytes) and passed through the
/// oracle, and the same programs from the next seed (different bytes as a
/// whole). Returns the number of programs verified.
std::uint64_t verify_programs(const RunContext& ctx, Tally& tally) {
  std::string corpus, next_corpus;
  for (std::uint64_t i = 0; i < kSetupPrograms; ++i) {
    const dt::GenOptions g = program_options(ctx.seed, i);
    const dt::GeneratedProgram prog = dt::generate(g);
    tally.check(dt::generate(g).source == prog.source,
                verdict(i, "generator", "gave different bytes for the same seed"));
    corpus += prog.source;
    next_corpus += dt::generate(program_options(ctx.seed + 1, i)).source;
    const dt::DiffReport rep = dt::run_difftest(prog);
    check_sound(i, rep, tally);
  }
  tally.check(corpus != next_corpus, "fuzz generator gave identical programs for the next seed");
  return kSetupPrograms;
}

/// Untraced: the public one-call pipeline, provenance oracle included.
/// Returns one latency per round.
Samples untraced_campaign(const RunContext& ctx, double seconds, Tally& tally) {
  Samples lat;
  const Clock::time_point deadline = deadline_after(seconds);
  for (std::uint64_t i = 0; before(deadline);) {
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t end = i + kRound; i < end; ++i) {
      const dt::GeneratedProgram prog = dt::generate(program_options(ctx.seed, i));
      const dt::DiffReport rep = dt::run_difftest(prog);
      check_sound(i, rep, tally);
    }
    lat.add(ms_since(t0));
  }
  return lat;
}

/// Counts the traced campaign accumulates beside its layer clock.
struct TracedCounts {
  double steps = 0, points = 0, run_ms = 0;
};

/// The pipeline of run_difftest one public call at a time, each call timed
/// into `clock`; `*steps`, `*points` and `*run_ms` receive the interpreter's
/// steps, the comparator's points and the interpreter's time. False when a
/// step failed.
bool decompose_program(const dt::GeneratedProgram& prog, LayerClock& clock, double* steps,
                       double* points, double* run_ms) {
  Clock::time_point t = Clock::now();
  const auto lap = [&](const char* layer) {
    const Clock::time_point now = Clock::now();
    const double ms = ms_between(t, now);
    clock.add(layer, ms);
    t = now;
    return ms;
  };
  ara::driver::Compiler cc;
  cc.add_source(prog.filename, prog.source, prog.lang);
  const bool compiled = cc.compile();
  lap("frontend.compile");
  if (!compiled) return false;
  std::vector<ara::obs::ProvRecord> prov;
  ara::ipa::AnalysisResult result;
  {
    const ara::obs::ProvSink sink(&prov, 0);
    result = cc.analyze();
  }
  lap("ipa.analyze");
  ara::interp::Interpreter interp(cc.program());
  ara::interp::DynamicSummary dyn;
  const ara::interp::InterpResult run = interp.run(prog.entry, &dyn);
  *run_ms = lap("interp.run");
  if (!run.ok) return false;
  const dt::DiffReport rep = dt::compare(cc.program(), result, dyn);
  lap("difftest.compare");
  *steps = static_cast<double>(run.steps);
  *points = static_cast<double>(rep.points_checked);
  return rep.violations.empty();
}

/// One program of the traced campaign. On the clock, with telemetry on:
/// generate and the same run_difftest call the untraced campaign makes,
/// provenance oracle included, so both sides do the same work and pass the
/// same checks. Off the clock, with telemetry off so the counters see each
/// program once: decompose_program for the layer split, checked to agree
/// with run_difftest. Returns the on-the-clock time; `counted` adds the
/// program's steps, points and interpreter time to `counts`.
double traced_program(const RunContext& ctx, std::uint64_t i, bool counted, LayerClock& clock,
                      TracedCounts& counts, Tally& tally) {
  const Clock::time_point t0 = Clock::now();
  const dt::GeneratedProgram prog = dt::generate(program_options(ctx.seed, i));
  clock.add("difftest.generate", ms_since(t0));
  const dt::DiffReport rep = dt::run_difftest(prog);
  const double op_ms = ms_since(t0);
  check_sound(i, rep, tally);

  double steps = 0, points = 0, run_ms = 0;
  ara::obs::set_enabled(false);
  const bool decomposed = decompose_program(prog, clock, &steps, &points, &run_ms);
  ara::obs::set_enabled(true);
  tally.check(decomposed && points == static_cast<double>(rep.points_checked),
              verdict(i, "decomposed pipeline disagrees with run_difftest", ""));
  if (counted) {
    counts.steps += steps;
    counts.points += points;
    counts.run_ms += run_ms;
  }
  return op_ms;
}

/// Traced: rounds of traced_program until `seconds` pass (and at least
/// kCountedPrograms programs ran). Returns one latency per round.
Samples traced_campaign(const RunContext& ctx, double seconds, Tally& tally, LayerMetrics& m) {
  reset_counters();
  LayerClock clock;
  TracedCounts counts;
  Samples lat;
  const Clock::time_point deadline = deadline_after(seconds);
  for (std::uint64_t i = 0; before(deadline) || i < kCountedPrograms;) {
    double round_ms = 0;
    for (std::uint64_t end = i + kRound; i < end; ++i) {
      ara::obs::Timeline::instance().clear();
      round_ms += traced_program(ctx, i, i < kCountedPrograms, clock, counts, tally);
      if (i + 1 == kCountedPrograms) read_counters(m);
    }
    lat.add(round_ms);
  }
  m.interp_steps = counts.steps;
  m.difftest_points_checked = counts.points;
  m.interp_ns_per_step = counts.steps > 0 ? counts.run_ms * 1e6 / counts.steps : 0.0;
  m.frontend_compile_ms = clock.mean_ms("frontend.compile");
  m.ipa_analyze_ms = clock.mean_ms("ipa.analyze");
  m.interp_run_ms = clock.mean_ms("interp.run");
  m.difftest_generate_ms = clock.mean_ms("difftest.generate");
  m.difftest_compare_ms = clock.mean_ms("difftest.compare");
  m.busy_ms["difftest"] = m.difftest_generate_ms + m.difftest_compare_ms;
  m.busy_ms["frontend"] = m.frontend_compile_ms;
  m.busy_ms["ipa"] = m.ipa_analyze_ms;
  m.busy_ms["interp"] = m.interp_run_ms;
  return lat;
}

}  // namespace

void run_fuzz(const RunContext& ctx, Tally& tally, Result& result) {
  EndToEnd e2e;
  (void)repeated_setup([&] { return verify_programs(ctx, tally); }, &e2e.setup_s);
  if (!ctx.trace) {
    e2e.latency_ms = untraced_campaign(ctx, ctx.seconds, tally);
    e2e.ops = static_cast<double>(kRound * e2e.latency_ms.size());
    e2e.busy_s = e2e.latency_ms.sum() / 1000.0;
    std::printf("fuzz: %zu rounds of %llu programs\n", e2e.latency_ms.size(),
                static_cast<unsigned long long>(kRound));
    add_end_to_end(e2e, result);
    return;
  }
  LayerMetrics m;
  const Samples plain = untraced_campaign(ctx, ctx.seconds / 2, tally);
  ara::obs::set_enabled(true);
  const Samples traced = traced_campaign(ctx, ctx.seconds / 2, tally, m);
  ara::obs::set_enabled(false);
  m.overhead_ratio = traced.median() / plain.median();
  std::printf("fuzz (traced): %zu untraced + %zu traced rounds\n", plain.size(), traced.size());
  add_layer_metrics(m, result);
}

}  // namespace perfbench
