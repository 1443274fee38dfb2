#include "obs/stats.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "obs/histogram.hpp"
#include "support/json.hpp"

namespace ara::obs {

namespace detail {
bool g_enabled = false;
}  // namespace detail

void set_enabled(bool on) { detail::g_enabled = on; }

Counter::Counter(std::string_view name, std::string_view desc)
    : name_(name), desc_(desc) {
  StatsRegistry::instance().register_counter(this);
}

StatsRegistry& StatsRegistry::instance() {
  static StatsRegistry registry;
  return registry;
}

void StatsRegistry::register_counter(Counter* counter) { counters_.push_back(counter); }

void StatsRegistry::reset() {
  for (Counter* c : counters_) c->reset();
}

std::vector<StatEntry> StatsRegistry::snapshot(bool nonzero_only) const {
  // Merge by name: two TUs may define the same statistic, and registration
  // order is link-dependent; a name-keyed map makes the snapshot stable.
  std::map<std::string, StatEntry> merged;
  for (const Counter* c : counters_) {
    StatEntry& e = merged[c->name()];
    if (e.name.empty()) {
      e.name = c->name();
      e.desc = c->desc();
    }
    e.value += c->value();
  }
  std::vector<StatEntry> out;
  out.reserve(merged.size());
  for (auto& [name, entry] : merged) {
    if (nonzero_only && entry.value == 0) continue;
    out.push_back(std::move(entry));
  }
  return out;
}

std::string render_counters_json(int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::vector<StatEntry> entries = StatsRegistry::instance().snapshot();
  std::ostringstream os;
  os << pad << "\"counters\": {";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    os << pad << "  \"" << json::escape(entries[i].name) << "\": " << entries[i].value;
  }
  os << (entries.empty() ? "}" : "\n" + pad + "}");
  return os.str();
}

std::string write_stats_json(std::string_view workload, std::span<const ProvRecord> causes) {
  // v2 added the histogram section (obs/histogram.hpp). Counter values stay
  // deterministic across runs; histogram timing fields, like span
  // durations, are measurements and are not.
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"ara.stats.v2\",\n";
  os << "  \"workload\": \"" << json::escape(workload) << "\",\n";
  os << render_counters_json(2) << ",\n";
  os << render_precision_json(2, causes) << ",\n";
  os << render_histograms_json(2) << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace ara::obs
