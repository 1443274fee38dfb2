// Pass-level statistics registry (LLVM `Statistic`-style). Modules define
// named monotonically-increasing counters with ARA_STATISTIC and bump them
// on the hot path; the cost per event is a single load + branch on the
// global enabled flag (verified by bench/bench_obs_overhead.cpp). Counter
// names are dot-namespaced by subsystem, e.g. `frontend.tokens`,
// `regions.fm_eliminations`, `ipa.summaries_propagated`.
//
//   ARA_STATISTIC(stat_tokens, "frontend.tokens", "Tokens lexed");
//   ...
//   stat_tokens.bump(out.size());
//
// Telemetry is off by default (the library is always linked but dormant);
// the `arac` CLI and the tests flip it on with obs::set_enabled(true).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/provenance.hpp"

namespace ara::obs {

namespace detail {
extern bool g_enabled;
}  // namespace detail

/// Global telemetry switch shared by counters and spans.
[[nodiscard]] inline bool enabled() { return detail::g_enabled; }
void set_enabled(bool on);

/// One row of a registry snapshot.
struct StatEntry {
  std::string name;
  std::string desc;
  std::uint64_t value = 0;
};

/// A named counter with static storage duration; registers itself with the
/// global registry on construction and stays registered for the process
/// lifetime (the registry stores raw pointers). Bumps are relaxed atomic
/// adds so the serve engine's worker threads can share counters; the total
/// is scheduling-independent because addition commutes.
class Counter {
 public:
  Counter(std::string_view name, std::string_view desc);

  void bump(std::uint64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& desc() const { return desc_; }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::string desc_;
  std::atomic<std::uint64_t> value_{0};
};

class StatsRegistry {
 public:
  static StatsRegistry& instance();

  /// Called by the Counter constructor; not for direct use.
  void register_counter(Counter* counter);

  /// Zeroes every registered counter (values only; registration persists).
  void reset();

  /// Name-sorted view; counters sharing a name (separate TUs) are summed.
  /// With `nonzero_only`, untouched counters are omitted.
  [[nodiscard]] std::vector<StatEntry> snapshot(bool nonzero_only = false) const;

 private:
  StatsRegistry() = default;
  std::vector<Counter*> counters_;
};

/// The `.stats.json` payload: schema marker, workload name, the name-sorted
/// counter map, the precision section (its `causes` counted from the run's
/// own cause records, empty for a caller that has none) and the non-empty
/// histogram section (see docs/FORMATS.md).
[[nodiscard]] std::string write_stats_json(std::string_view workload,
                                           std::span<const ProvRecord> causes = {});

/// The `"counters": { ... }` JSON fragment shared by the .stats.json and
/// --metrics-out writers, indented by `indent` spaces.
[[nodiscard]] std::string render_counters_json(int indent);

}  // namespace ara::obs

/// Defines a TU-local counter with static storage duration.
#define ARA_STATISTIC(var, name, desc) static ::ara::obs::Counter var{name, desc}
