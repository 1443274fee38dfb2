// Measurement plumbing shared by every workload: latency samples and their
// percentiles, the failure tally behind `correct`/`attempted`/`failed`, the
// per-layer accumulators of the traced run, and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

/// Peak resident set size of this process (VmHWM) since the last
/// reset_peak_rss(), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Returns freed heap memory to the system (malloc_trim) and resets the
/// peak resident set to the current one, so peak_rss_mb() covers only what
/// runs afterwards. Throws when the kernel refuses the reset.
void reset_peak_rss();

/// User plus system CPU seconds this process has used so far.
[[nodiscard]] double process_cpu_s();

/// Median time of a fixed single-threaded integer loop. Printed before and
/// after each run, not a metric: on a shared host it shows how fast the
/// machine itself was while the run measured.
[[nodiscard]] double host_reference_ms();

/// Worker threads and connections for every workload: the host's usable
/// cores (sched affinity), capped at 4 so hosts with more cores still run
/// the same configuration.
[[nodiscard]] std::size_t bench_jobs();

/// A tail percentile: the highest of p50, p75, p90, p95, p99 and p99.9 that
/// still has at least ten samples beyond it, with the count it rests on.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile, q in [0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] Tail tail() const;
  [[nodiscard]] double sum() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Counts every output check: one `attempt` per checked operation, one
/// `fail` per operation that failed, was shed, or returned a wrong answer.
/// The first few failure reasons are kept for stderr. Thread-safe.
class Tally {
 public:
  void pass();
  void fail(const std::string& why);
  /// pass() when `ok`, else fail(why).
  void check(bool ok, const std::string& why);
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
  void print_failures() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Busy time and call counts per named layer timer, for the traced run.
class LayerClock {
 public:
  void add(const std::string& name, double ms);
  /// Mean milliseconds per call; 0 when the timer never ran.
  [[nodiscard]] double mean_ms(const std::string& name) const;

 private:
  struct Acc {
    double ms = 0.0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, Acc> acc_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result: printed as the last stdout line.
struct Result {
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] std::string json(const Tally& tally) const;
};

/// Prints a human-readable line describing a latency distribution
/// (median, tail percentile and the sample counts it rests on) to stdout.
void describe(const std::string& what, const Samples& s, const std::string& unit);

}  // namespace perfbench
