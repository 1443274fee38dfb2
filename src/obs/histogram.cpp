#include "obs/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/provenance.hpp"
#include "support/json.hpp"

namespace ara::obs {

namespace hist_detail {

std::uint32_t bucket_index(std::uint64_t v) {
  if (v < 2 * kSubCount) return static_cast<std::uint32_t>(v);  // width-1 buckets, exact
  if (v >= kOverflowValue) return kBucketCount - 1;
  const auto width = static_cast<std::uint32_t>(std::bit_width(v));  // >= kSubBits + 2
  const std::uint32_t shift = width - (kSubBits + 1);
  return 2 * kSubCount + (shift - 1) * kSubCount +
         static_cast<std::uint32_t>((v >> shift) - kSubCount);
}

std::uint64_t bucket_lower(std::uint32_t idx) {
  if (idx < 2 * kSubCount) return idx;
  if (idx >= kBucketCount - 1) return kOverflowValue;
  const std::uint32_t rel = idx - 2 * kSubCount;
  const std::uint32_t shift = rel / kSubCount + 1;
  const std::uint64_t sub = rel % kSubCount;
  return (kSubCount + sub) << shift;
}

}  // namespace hist_detail

std::uint64_t HistogramSnapshot::percentile(double q) const {
  if (count == 0) return 0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Rank of the q-th sample (1-based, nearest-rank definition).
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (const auto& [lower, n] : buckets) {
    seen += n;
    if (seen >= rank) {
      // The bucket's lower bound, clamped into the observed range so
      // width-1 buckets (and single-sample histograms) are exact.
      return std::clamp(lower, min, max);
    }
  }
  return max;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  // Merge the sparse bucket lists (both ascending by lower bound).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < buckets.size() || b < other.buckets.size()) {
    if (b >= other.buckets.size() ||
        (a < buckets.size() && buckets[a].first < other.buckets[b].first)) {
      merged.push_back(buckets[a++]);
    } else if (a >= buckets.size() || other.buckets[b].first < buckets[a].first) {
      merged.push_back(other.buckets[b++]);
    } else {
      merged.emplace_back(buckets[a].first, buckets[a].second + other.buckets[b].second);
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
}

Histogram::Histogram(std::string_view name, std::string_view desc, std::string_view unit)
    : name_(name), desc_(desc), unit_(unit), bucket_counts_(hist_detail::kBucketCount) {
  HistogramRegistry::instance().register_histogram(this);
}

void Histogram::record_always(std::uint64_t value) {
  bucket_counts_[hist_detail::bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur && !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur && !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.name = name_;
  snap.desc = desc_;
  snap.unit = unit_;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  if (snap.count > 0) {
    snap.min = min_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
  }
  for (std::uint32_t i = 0; i < bucket_counts_.size(); ++i) {
    const std::uint64_t n = bucket_counts_[i].load(std::memory_order_relaxed);
    if (n > 0) snap.buckets.emplace_back(hist_detail::bucket_lower(i), n);
  }
  return snap;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : bucket_counts_) b.store(0, std::memory_order_relaxed);
}

HistogramRegistry& HistogramRegistry::instance() {
  static HistogramRegistry registry;
  return registry;
}

void HistogramRegistry::register_histogram(Histogram* hist) { histograms_.push_back(hist); }

void HistogramRegistry::reset() {
  for (Histogram* h : histograms_) h->reset();
}

std::vector<HistogramSnapshot> HistogramRegistry::snapshot(bool nonempty_only) const {
  // Merge by name (two TUs may define the same histogram); name-keyed map
  // keeps the result stable across link orders, like the counter registry.
  std::map<std::string, HistogramSnapshot> merged;
  for (const Histogram* h : histograms_) {
    auto it = merged.find(h->name());
    if (it == merged.end()) {
      merged.emplace(h->name(), h->snapshot());
    } else {
      it->second.merge(h->snapshot());
    }
  }
  std::vector<HistogramSnapshot> out;
  out.reserve(merged.size());
  for (auto& [name, snap] : merged) {
    if (nonempty_only && snap.count == 0) continue;
    out.push_back(std::move(snap));
  }
  return out;
}

namespace {

std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

std::string render_histograms_json(int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::vector<HistogramSnapshot> hists =
      HistogramRegistry::instance().snapshot(/*nonempty_only=*/true);
  std::ostringstream os;
  os << pad << "\"histograms\": {";
  for (std::size_t i = 0; i < hists.size(); ++i) {
    const HistogramSnapshot& h = hists[i];
    os << (i == 0 ? "\n" : ",\n");
    os << pad << "  \"" << json::escape(h.name) << "\": {"
       << "\"unit\": \"" << json::escape(h.unit) << "\", "
       << "\"count\": " << h.count << ", "
       << "\"sum\": " << h.sum << ", "
       << "\"min\": " << h.min << ", "
       << "\"max\": " << h.max << ", "
       << "\"mean\": " << fmt_double(h.mean()) << ", "
       << "\"p50\": " << h.percentile(0.50) << ", "
       << "\"p90\": " << h.percentile(0.90) << ", "
       << "\"p99\": " << h.percentile(0.99) << "}";
  }
  os << (hists.empty() ? "}" : "\n" + pad + "}");
  return os.str();
}

std::string write_metrics_json(std::string_view workload, std::span<const ProvRecord> causes) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"ara.metrics.v1\",\n";
  os << "  \"workload\": \"" << json::escape(workload) << "\",\n";
  os << render_counters_json(2) << ",\n";
  os << render_precision_json(2, causes) << ",\n";
  os << render_histograms_json(2) << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace ara::obs
