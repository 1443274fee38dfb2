#include "layers.hpp"

#include <cstdio>

#include "obs/stats.hpp"

namespace perfbench {

namespace {

/// The repository modules the benchmark attributes time to; `ipa` covers
/// ipa + regions (local analysis and region operations).
constexpr const char* kLayers[] = {"frontend", "ipa", "serve", "rgn", "daemon", "interp", "difftest"};

}  // namespace

void reset_counters() { ara::obs::StatsRegistry::instance().reset(); }

void read_counters(LayerMetrics& m) {
  for (const ara::obs::StatEntry& e : ara::obs::StatsRegistry::instance().snapshot()) {
    const auto v = static_cast<double>(e.value);
    if (e.name == "frontend.tokens") m.frontend_tokens = v;
    if (e.name == "ipa.access_records") m.ipa_access_records = v;
    if (e.name == "ipa.region_merges") m.ipa_region_merges = v;
    if (e.name == "regions.dims_projected") m.regions_dims_projected = v;
    if (e.name == "serve.link_interproc_records") m.serve_link_records = v;
  }
}

void add_layer_metrics(const LayerMetrics& m, Result& r) {
  r.add("frontend.compile_ms", m.frontend_compile_ms, "ms");
  r.add("frontend.tokens", m.frontend_tokens, "count");
  r.add("ipa.summarize_ms", m.ipa_summarize_ms, "ms");
  r.add("ipa.access_records", m.ipa_access_records, "count");
  r.add("ipa.analyze_ms", m.ipa_analyze_ms, "ms");
  r.add("ipa.region_merges", m.ipa_region_merges, "count");
  r.add("regions.dims_projected", m.regions_dims_projected, "count");
  r.add("serve.unit_phase_ms", m.serve_unit_phase_ms, "ms");
  r.add("serve.parallel_efficiency", m.serve_parallel_efficiency, "ratio");
  r.add("serve.link_ms", m.serve_link_ms, "ms");
  r.add("serve.link_records", m.serve_link_records, "count");
  r.add("serve.cache_store_ms", m.serve_cache_store_ms, "ms");
  r.add("serve.cache_load_ms", m.serve_cache_load_ms, "ms");
  r.add("serve.cache_hits", m.serve_cache_hits, "count");
  r.add("serve.cache_misses", m.serve_cache_misses, "count");
  r.add("serve.invalidated_units", m.serve_invalidated_units, "count");
  r.add("rgn.write_ms", m.rgn_write_ms, "ms");
  r.add("rgn.render_table_ms", m.rgn_render_table_ms, "ms");
  r.add("daemon.handle_query_ms", m.daemon_handle_query_ms, "ms");
  r.add("daemon.transport_ms", m.daemon_transport_ms, "ms");
  r.add("daemon.request_parse_ms", m.daemon_request_parse_ms, "ms");
  r.add("daemon.analyze_ms", m.daemon_analyze_ms, "ms");
  r.add("daemon.shed_requests", m.daemon_shed_requests, "count");
  r.add("daemon.request_errors", m.daemon_request_errors, "count");
  r.add("daemon.queue_depth_max", m.daemon_queue_depth_max, "count");
  r.add("loadgen.late_tail_ms", m.loadgen_late_tail_ms, "ms");
  r.add("interp.run_ms", m.interp_run_ms, "ms");
  r.add("interp.steps", m.interp_steps, "count");
  r.add("interp.ns_per_step", m.interp_ns_per_step, "ns");
  r.add("difftest.generate_ms", m.difftest_generate_ms, "ms");
  r.add("difftest.compare_ms", m.difftest_compare_ms, "ms");
  r.add("difftest.points_checked", m.difftest_points_checked, "count");
  r.add("trace.overhead_ratio", m.overhead_ratio, "ratio");

  double total = 0.0;
  for (const auto& [layer, ms] : m.busy_ms) total += ms;
  std::printf("  layer shares of attributed busy time (%.3f ms per operation):\n", total);
  for (const char* layer : kLayers) {
    const auto it = m.busy_ms.find(layer);
    const double share = (it == m.busy_ms.end() || total <= 0) ? 0.0 : it->second / total;
    r.add(std::string(layer) + ".share", share, "ratio");
    std::printf("    %-9s %6.1f%%\n", layer, share * 100.0);
  }
}

}  // namespace perfbench
