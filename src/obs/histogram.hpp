// Log-bucketed latency histograms (HdrHistogram-style log-linear layout).
// Counters (obs/stats.hpp) answer "how many"; histograms answer "how long,
// and how is it distributed" — p50/p90/p99 per-unit parse latency, cache
// lookup time, queue wait, Fourier-Motzkin elimination cost. Like counters,
// a histogram is a TU-local static registered for the process lifetime:
//
//   ARA_HISTOGRAM(hist_parse, "serve.unit_parse_ns", "Per-unit parse+lower
//                 latency", "ns");
//   ...
//   { obs::ScopedLatency t(hist_parse); compile_unit(); }
//
// Recording is a relaxed atomic increment into one of ~1.2k fixed buckets,
// so worker threads share histograms without locks and the merged state is
// scheduling-independent for a fixed sample multiset. Values below 64 land
// in width-1 buckets (exact); larger values keep <= 1/32 relative error up
// to the overflow bucket (~2^42, about 73 minutes in ns). Dormant unless
// obs::set_enabled(true), same as counters.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stats.hpp"

namespace ara::obs {

namespace hist_detail {

/// Log-linear bucket layout: 5 sub-bucket bits => 32 sub-buckets per
/// power-of-two exponent range; values < 2 * 32 are bucketed exactly.
inline constexpr std::uint32_t kSubBits = 5;
inline constexpr std::uint32_t kSubCount = 1u << kSubBits;  // 32
/// Values at or above 2^42 collapse into the final overflow bucket.
inline constexpr std::uint32_t kMaxExponent = 42;
inline constexpr std::uint64_t kOverflowValue = 1ull << kMaxExponent;
inline constexpr std::uint32_t kBucketCount =
    2 * kSubCount + (kMaxExponent - kSubBits - 1) * kSubCount + 1;

/// Bucket index for a value (the overflow bucket for v >= kOverflowValue).
[[nodiscard]] std::uint32_t bucket_index(std::uint64_t v);

/// Smallest value mapping to bucket `idx` (its representative value).
[[nodiscard]] std::uint64_t bucket_lower(std::uint32_t idx);

}  // namespace hist_detail

/// Mergeable histogram state: a full snapshot of one histogram, safe to
/// combine across workers, runs, or processes with merge(). Percentile
/// extraction walks the cumulative bucket counts; results are exact for
/// values in width-1 buckets (< 64) and bucket-lower-bound approximations
/// (<= 1/32 relative error) above.
struct HistogramSnapshot {
  std::string name;
  std::string desc;
  std::string unit;  // sample unit, e.g. "ns"
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // exact observed extrema (0 when count == 0)
  std::uint64_t max = 0;
  /// Sparse nonzero buckets as (bucket lower bound, sample count),
  /// ascending by bound; the overflow bucket reports kOverflowValue.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;

  /// Value at quantile q in [0, 1]: the representative (lower bound) of the
  /// bucket holding the ceil(q * count)-th sample; 0 when empty. The
  /// extremes are exact: percentile(0) == min, percentile(1) == max.
  [[nodiscard]] std::uint64_t percentile(double q) const;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Adds `other`'s samples into this snapshot (same layout assumed).
  void merge(const HistogramSnapshot& other);
};

/// A named histogram with static storage duration; registers itself with
/// the global registry on construction (mirror of obs::Counter). record()
/// is wait-free: one enabled-flag branch when dormant, a handful of relaxed
/// atomics when live.
class Histogram {
 public:
  Histogram(std::string_view name, std::string_view desc, std::string_view unit = "ns");

  void record(std::uint64_t value) {
    if (enabled()) record_always(value);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& desc() const { return desc_; }
  [[nodiscard]] const std::string& unit() const { return unit_; }

 private:
  void record_always(std::uint64_t value);

  std::string name_;
  std::string desc_;
  std::string unit_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
  std::vector<std::atomic<std::uint64_t>> bucket_counts_;
};

class HistogramRegistry {
 public:
  static HistogramRegistry& instance();

  /// Called by the Histogram constructor; not for direct use.
  void register_histogram(Histogram* hist);

  /// Zeroes every registered histogram (registration persists).
  void reset();

  /// Name-sorted snapshots; histograms sharing a name (separate TUs) are
  /// merged. With `nonempty_only`, histograms with no samples are omitted.
  [[nodiscard]] std::vector<HistogramSnapshot> snapshot(bool nonempty_only = false) const;

 private:
  HistogramRegistry() = default;
  std::vector<Histogram*> histograms_;
};

/// RAII latency probe: records the scope's wall time (ns) into `hist` on
/// destruction. Reads the clock only when telemetry is enabled.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& hist) : hist_(hist) {
    if (enabled()) {
      start_ = std::chrono::steady_clock::now();
      active_ = true;
    }
  }
  ~ScopedLatency() {
    if (active_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_);
      hist_.record(static_cast<std::uint64_t>(ns.count()));
    }
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram& hist_;
  std::chrono::steady_clock::time_point start_;
  bool active_ = false;
};

/// The `--metrics-out` payload (`ara.metrics.v1`, docs/FORMATS.md): the
/// counter map, the precision section (`causes` as in write_stats_json)
/// and every non-empty histogram with count/sum/min/max/mean and
/// p50/p90/p99.
[[nodiscard]] std::string write_metrics_json(std::string_view workload,
                                             std::span<const ProvRecord> causes = {});

/// The histogram section shared by write_metrics_json and the v2
/// .stats.json writer: `"histograms": { ... }` without outer braces, each
/// entry indented by `indent`.
[[nodiscard]] std::string render_histograms_json(int indent);

}  // namespace ara::obs

/// Defines a TU-local histogram with static storage duration.
#define ARA_HISTOGRAM(var, name, desc, unit) \
  static ::ara::obs::Histogram var { name, desc, unit }
