#include <cstdio>
#include <filesystem>
#include <functional>

#include "frontend/compile.hpp"
#include "layers.hpp"
#include "obs/timeline.hpp"
#include "serve/cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace sv = ara::serve;

/// One unit's cost through each public call of the per-unit phase.
struct UnitCost {
  double compile_ms = 0, summarize_ms = 0, store_ms = 0, load_ms = 0;
};

struct Decomposed {
  std::vector<UnitCost> units;
  double link_ms = 0;
  double write_ms = 0;
};

/// The batch pipeline one public call at a time, serially: per unit
/// fe::compile_program, serve::summarize_unit, SummaryCache::store and
/// load (into a scratch cache), then serve::link_units over the summaries
/// and rgn::write_rgn over the linked rows — which must equal the verified
/// rows, so the decomposition is checked to do the benchmark's real work.
Decomposed decompose(const std::vector<sv::SourceBuffer>& sources, const fs::path& scratch,
                     const Verified& v, Tally& tally) {
  fs::remove_all(scratch);
  const sv::SummaryCache cache(scratch, true);
  Decomposed d;
  std::vector<sv::UnitSummary> summaries;
  std::vector<std::string> texts;
  for (const sv::SourceBuffer& src : sources) {
    UnitCost c;
    ara::ir::Program program;
    program.sources.add(src.name, src.text, src.lang);
    ara::DiagnosticEngine diags(&program.sources);
    std::vector<ara::fe::ExternRef> externs;
    std::vector<std::string> imported;
    ara::fe::CompileOptions copts;
    copts.external_calls = true;
    Clock::time_point t = Clock::now();
    const bool ok = ara::fe::compile_program(program, diags, copts, &externs, &imported);
    c.compile_ms = ms_since(t);
    if (!ok) {
      tally.fail("decomposed compile of " + src.name + " failed");
      return d;
    }
    t = Clock::now();
    sv::UnitSummary summary = sv::summarize_unit(program, externs, imported);
    c.summarize_ms = ms_since(t);
    const std::string key = sv::SummaryCache::key_for(src.name, src.text, src.lang, "perfbench");
    t = Clock::now();
    cache.store(key, summary);
    c.store_ms = ms_since(t);
    t = Clock::now();
    const bool loaded = cache.load(key).has_value();
    c.load_ms = ms_since(t);
    tally.check(loaded, "summary cache did not return the entry just stored for " + src.name);
    summaries.push_back(std::move(summary));
    texts.push_back(src.text);
    d.units.push_back(c);
  }
  Clock::time_point t = Clock::now();
  const sv::LinkResult link = sv::link_units(summaries, texts, sv::LinkOptions{}, "bench");
  d.link_ms = ms_since(t);
  tally.check(link.ok && link.rows == v.rows, "decomposed link rows differ from verified rows");
  t = Clock::now();
  const std::string rgn = ara::rgn::write_rgn(link.rows);
  d.write_ms = ms_since(t);
  tally.check(rgn == v.rgn, "decomposed .rgn bytes differ from verified bytes");
  fs::remove_all(scratch);
  return d;
}

/// Attributes the decomposition to a traced batch run: analyzed units pay
/// compile + summarize (+ a store when the run has a cache), cached units
/// pay a load, the run pays link. `r` is the first traced run (its unit
/// statuses); `wall_ms` the traced median.
void attribute(const sv::BatchResult& r, double wall_ms, const Decomposed& d, bool cached,
               std::size_t jobs, LayerMetrics& m) {
  double fe = 0, ipa = 0, store = 0, load = 0;
  for (std::size_t i = 0; i < r.units.size() && i < d.units.size(); ++i) {
    if (r.units[i].status == sv::UnitStatus::Analyzed) {
      fe += d.units[i].compile_ms;
      ipa += d.units[i].summarize_ms;
      if (cached) store += d.units[i].store_ms;
    } else if (r.units[i].status == sv::UnitStatus::Cached) {
      load += d.units[i].load_ms;
    }
  }
  m.frontend_compile_ms = fe;
  m.ipa_summarize_ms = ipa;
  m.serve_cache_store_ms = store;
  m.serve_cache_load_ms = load;
  m.serve_link_ms = d.link_ms;
  m.serve_unit_phase_ms = wall_ms - d.link_ms;
  m.serve_parallel_efficiency =
      m.serve_unit_phase_ms > 0
          ? (fe + ipa + store + load) / (static_cast<double>(jobs) * m.serve_unit_phase_ms)
          : 0.0;
  m.serve_cache_hits = static_cast<double>(r.cache_hits);
  m.serve_cache_misses = static_cast<double>(r.cache_misses);
  m.serve_invalidated_units = static_cast<double>(r.invalidated_units);
  m.rgn_write_ms = d.write_ms;
  m.busy_ms["frontend"] = fe;
  m.busy_ms["ipa"] = ipa;
  m.busy_ms["serve"] = store + load + d.link_ms;
}

/// One batch operation: returns its wall time and result.
using BatchOp = std::function<double(std::uint64_t i, sv::BatchResult* out)>;

/// Runs `op` at least once and until `seconds` pass.
Samples loop(const BatchOp& op, double seconds) {
  Samples lat;
  const Clock::time_point deadline = deadline_after(seconds);
  for (std::uint64_t i = 0; i == 0 || before(deadline); ++i) {
    sv::BatchResult r;
    lat.add(op(i, &r));
    ara::obs::Timeline::instance().clear();
  }
  return lat;
}

/// The shared driver of both batch workloads. `make_op(phase)` returns the
/// operation for a phase (0 untraced, 1 traced), so the traced phase can
/// restart its seed-determined sequence.
void run_batch_workload(const RunContext& ctx, const Verified& v, double setup_s, bool cached,
                        const std::function<BatchOp(int phase)>& make_op, const char* name,
                        Tally& tally, Result& result) {
  const double units = static_cast<double>(v.project.units.size());
  if (!ctx.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.latency_ms = loop(make_op(0), ctx.seconds);
    e2e.ops = units * static_cast<double>(e2e.latency_ms.size());
    e2e.busy_s = e2e.latency_ms.sum() / 1000.0;
    std::printf("%s: %zu batch runs of %.0f units\n", name, e2e.latency_ms.size(), units);
    add_end_to_end(e2e, result);
    return;
  }
  LayerMetrics m;
  const Samples plain = loop(make_op(0), ctx.seconds / 2);
  ara::obs::set_enabled(true);
  const BatchOp traced_op = make_op(1);
  sv::BatchResult first;
  reset_counters();
  Samples traced;
  traced.add(traced_op(0, &first));
  read_counters(m);
  ara::obs::Timeline::instance().clear();
  traced.append(loop([&](std::uint64_t i, sv::BatchResult* out) { return traced_op(i + 1, out); },
                     ctx.seconds / 2));
  ara::obs::set_enabled(false);
  m.overhead_ratio = traced.median() / plain.median();
  const Decomposed d = decompose(v.project.units, ctx.work / "decompose", v, tally);
  attribute(first, traced.median(), d, cached, ctx.jobs, m);
  std::printf("%s (traced): %zu untraced + %zu traced batch runs\n", name, plain.size(),
              traced.size());
  add_layer_metrics(m, result);
}

}  // namespace

void run_batch_cold(const RunContext& ctx, Tally& tally, Result& result) {
  double setup_s = 0;
  const auto v = repeated_setup([&] { return build_and_verify(ctx, tally, ""); }, &setup_s);
  // No --cache-dir: with one, the run's time is dominated by the summary
  // cache's store path (a lock file per store, taken with sleep backoff
  // under contention), and varied by more than 30% from run to run on a
  // 4-core host. The store path's cost is measured per layer instead.
  const auto make_op = [&](int /*phase*/) -> BatchOp {
    return [&](std::uint64_t i, sv::BatchResult* out) {
      const Clock::time_point t0 = Clock::now();
      *out = sv::run_batch(v->project.units, batch_options(ctx, ""), "bench");
      const double ms = ms_since(t0);
      tally.check(out->ok && out->link.rows == v->rows,
                  "cold batch run " + std::to_string(i) + " differs from the verified rows");
      return ms;
    };
  };
  run_batch_workload(ctx, *v, setup_s, false, make_op, "batch_cold", tally, result);
}

void run_batch_edit(const RunContext& ctx, Tally& tally, Result& result) {
  const fs::path cache = ctx.work / "cache";
  double setup_s = 0;
  const auto v = repeated_setup(
      [&] {
        fs::remove_all(cache);
        return build_and_verify(ctx, tally, cache.string());
      },
      &setup_s);
  // Edits accumulate in `current`, so each run differs from the previous
  // one in exactly one kernel unit whatever came before.
  std::vector<sv::SourceBuffer> current = v->project.units;
  const auto make_op = [&](int phase) -> BatchOp {
    return [&, phase](std::uint64_t i, sv::BatchResult* out) {
      const std::uint64_t stream = (std::uint64_t{2} << 32) + (std::uint64_t(phase) << 24) + i;
      const std::size_t k = v->project.kernels[mix_seed(ctx.seed, stream) % v->project.kernels.size()];
      current[k].text = comment_edit(current[k].text, std::to_string(phase) + "-" + std::to_string(i));
      const Clock::time_point t0 = Clock::now();
      *out = sv::run_batch(current, batch_options(ctx, cache.string()), "bench");
      const double ms = ms_since(t0);
      tally.check(out->ok && out->cache_misses >= 1 &&
                      out->cache_hits + out->cache_misses == current.size() &&
                      out->link.rows == v->rows,
                  "edit batch run " + std::to_string(i) + " differs from the verified rows");
      return ms;
    };
  };
  run_batch_workload(ctx, *v, setup_s, true, make_op, "batch_edit", tally, result);
}

}  // namespace perfbench
