// The traced run's per-layer metrics. Every workload reports the full set
// (so one name means one thing everywhere); a layer the workload never
// enters reads 0. Times are milliseconds per operation of the workload —
// per batch run, per daemon request, per fuzz program — and counts are
// taken over a fixed, seed-determined prefix of the traced phase so they
// repeat exactly at a fixed seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "report.hpp"

namespace perfbench {

struct LayerMetrics {
  double frontend_compile_ms = 0, frontend_tokens = 0;
  double ipa_summarize_ms = 0, ipa_access_records = 0, ipa_analyze_ms = 0;
  double regions_dims_projected = 0, ipa_region_merges = 0;
  double serve_unit_phase_ms = 0, serve_parallel_efficiency = 0;
  double serve_link_ms = 0, serve_link_records = 0;
  double serve_cache_store_ms = 0, serve_cache_load_ms = 0;
  double serve_cache_hits = 0, serve_cache_misses = 0, serve_invalidated_units = 0;
  double rgn_write_ms = 0, rgn_render_table_ms = 0;
  double daemon_handle_query_ms = 0, daemon_transport_ms = 0;
  double daemon_request_parse_ms = 0, daemon_analyze_ms = 0;
  double daemon_shed_requests = 0, daemon_request_errors = 0, daemon_queue_depth_max = 0;
  double loadgen_late_tail_ms = 0;
  double interp_run_ms = 0, interp_steps = 0, interp_ns_per_step = 0;
  double difftest_generate_ms = 0, difftest_compare_ms = 0, difftest_points_checked = 0;
  /// Traced ÷ untraced median operation time, measured in the same process.
  double overhead_ratio = 0;
  /// Busy milliseconds per operation attributed to each layer (frontend,
  /// ipa, serve, rgn, daemon, interp, difftest); the shares are each
  /// layer's part of their sum.
  std::map<std::string, double> busy_ms;
};

/// Appends every per-layer metric, in a fixed order, to `result`, and
/// prints the layer shares.
void add_layer_metrics(const LayerMetrics& m, Result& result);

/// Zeroes the program's own counters (obs::StatsRegistry) before a counted
/// stretch of work; read_counters() then takes the counts it produced.
void reset_counters();
void read_counters(LayerMetrics& m);

}  // namespace perfbench
