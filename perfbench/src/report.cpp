#include "report.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset the peak resident set (/proc/self/clear_refs)");
}

double process_cpu_s() {
  rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  const auto s = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6; };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double host_reference_ms() {
  Samples lat;
  std::uint64_t x = 0;
  for (int rep = 0; rep < 15; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < 4'000'000; ++i) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      x ^= z >> 31;
    }
    lat.add(ms_since(t0));
  }
  volatile std::uint64_t sink = x;  // keeps the loop from being optimized away
  (void)sink;
  return lat.median();
}

std::size_t bench_jobs() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::size_t n = 1;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) n = static_cast<std::size_t>(CPU_COUNT(&set));
  return std::clamp<std::size_t>(n, 1, 4);
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::percentile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

Tail Samples::tail() const {
  static constexpr double kLadder[] = {50, 75, 90, 95, 99, 99.9};
  Tail t;
  t.samples = values_.size();
  for (const double q : kLadder) {
    const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(t.samples)));
    if (t.samples < rank + 10) break;
    t.percentile = q;
    t.beyond = t.samples - rank;
  }
  t.value = percentile(t.percentile);
  return t;
}

double Samples::sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

void Tally::pass() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
}

void Tally::fail(const std::string& why) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  ++failed_;
  if (reasons_.size() < 10) reasons_.push_back(why);
}

void Tally::check(bool ok, const std::string& why) {
  if (ok) {
    pass();
  } else {
    fail(why);
  }
}

std::uint64_t Tally::attempted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::uint64_t Tally::failed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void Tally::print_failures() const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& r : reasons_) std::fprintf(stderr, "perfbench: FAILED: %s\n", r.c_str());
  if (failed_ > reasons_.size()) {
    std::fprintf(stderr, "perfbench: ... and %llu more failures\n",
                 static_cast<unsigned long long>(failed_ - reasons_.size()));
  }
}

void LayerClock::add(const std::string& name, double ms) {
  Acc& a = acc_[name];
  a.ms += ms;
  ++a.calls;
}

double LayerClock::mean_ms(const std::string& name) const {
  const auto it = acc_.find(name);
  return it == acc_.end() || it->second.calls == 0
             ? 0.0
             : it->second.ms / static_cast<double>(it->second.calls);
}

std::string Result::json(const Tally& tally) const {
  std::string out = "{\"correct\": ";
  out += tally.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted());
  out += ", \"failed\": " + std::to_string(tally.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    // Every significant digit: runs are compared on the raw measurement.
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void describe(const std::string& what, const Samples& s, const std::string& unit) {
  const Tail t = s.tail();
  std::printf("  %-28s p50 %10.3f %s   p%-5g %10.3f %s   (%zu samples, %zu beyond the tail)\n",
              what.c_str(), s.median(), unit.c_str(), t.percentile, t.value, unit.c_str(),
              t.samples, t.beyond);
}

}  // namespace perfbench
