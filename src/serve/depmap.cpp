#include "serve/depmap.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <sstream>

#include "ipa/summary_io.hpp"
#include "obs/stats.hpp"
#include "serve/cache.hpp"

namespace ara::serve {

ARA_STATISTIC(stat_depmap_loads, "serve.depmap_loads", "Dependency maps loaded from disk");
ARA_STATISTIC(stat_depmap_invalid, "serve.depmap_invalid",
              "Dependency maps rejected as absent or malformed (full invalidation)");

namespace io = ipa::io;

namespace {

constexpr std::string_view kMagic = "ARA-DEPS 1";

std::vector<std::string_view> split_ws(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

}  // namespace

void DepMap::set(const std::string& unit, UnitDeps deps) {
  deps.deps.erase(std::remove(deps.deps.begin(), deps.deps.end(), unit), deps.deps.end());
  std::sort(deps.deps.begin(), deps.deps.end());
  deps.deps.erase(std::unique(deps.deps.begin(), deps.deps.end()), deps.deps.end());
  std::sort(deps.imports.begin(), deps.imports.end());
  deps.imports.erase(std::unique(deps.imports.begin(), deps.imports.end()),
                     deps.imports.end());
  units_[unit] = std::move(deps);
}

void DepMap::remove(const std::string& unit) { units_.erase(unit); }

const UnitDeps* DepMap::find(const std::string& unit) const {
  const auto it = units_.find(unit);
  return it != units_.end() ? &it->second : nullptr;
}

std::set<std::string> DepMap::dependents_closure(const std::set<std::string>& changed) const {
  // Reverse adjacency: dependency -> dependents.
  std::map<std::string, std::vector<std::string>> reverse;
  for (const auto& [unit, deps] : units_) {
    for (const std::string& d : deps.deps) reverse[d].push_back(unit);
  }
  std::set<std::string> out = changed;
  std::deque<std::string> frontier(changed.begin(), changed.end());
  while (!frontier.empty()) {
    const std::string unit = std::move(frontier.front());
    frontier.pop_front();
    const auto it = reverse.find(unit);
    if (it == reverse.end()) continue;
    for (const std::string& dependent : it->second) {
      if (out.insert(dependent).second) frontier.push_back(dependent);
    }
  }
  return out;
}

std::vector<std::string> DepMap::unit_names() const {
  std::vector<std::string> out;
  out.reserve(units_.size());
  for (const auto& [unit, deps] : units_) out.push_back(unit);
  return out;
}

std::string DepMap::write() const {
  std::ostringstream os;
  os << kMagic << '\n' << "units " << units_.size() << '\n';
  for (const auto& [unit, deps] : units_) {
    os << "unit " << io::enc(unit) << ' ' << deps.imports.size() << ' ' << deps.deps.size()
       << '\n';
    for (const std::string& g : deps.imports) os << "imp " << io::enc(g) << '\n';
    for (const std::string& d : deps.deps) os << "dep " << io::enc(d) << '\n';
  }
  os << "end\n";
  return os.str();
}

std::optional<DepMap> DepMap::parse(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || line != kMagic) return std::nullopt;
  if (!std::getline(in, line)) return std::nullopt;
  auto t = split_ws(line);
  std::uint64_t nunits = 0;
  if (t.size() != 2 || t[0] != "units") return std::nullopt;
  if (const auto v = io::read_u64(t[1]); v && *v <= 1000000ULL) {
    nunits = *v;
  } else {
    return std::nullopt;
  }

  DepMap map;
  for (std::uint64_t u = 0; u < nunits; ++u) {
    if (!std::getline(in, line)) return std::nullopt;
    t = split_ws(line);
    if (t.size() != 4 || t[0] != "unit") return std::nullopt;
    const auto name = io::dec(t[1]);
    const auto nimp = io::read_u64(t[2]);
    const auto ndep = io::read_u64(t[3]);
    if (!name || !nimp || !ndep || *nimp > 1000000ULL || *ndep > 1000000ULL) {
      return std::nullopt;
    }
    UnitDeps deps;
    for (std::uint64_t i = 0; i < *nimp; ++i) {
      if (!std::getline(in, line)) return std::nullopt;
      t = split_ws(line);
      if (t.size() != 2 || t[0] != "imp") return std::nullopt;
      const auto g = io::dec(t[1]);
      if (!g) return std::nullopt;
      deps.imports.push_back(*g);
    }
    for (std::uint64_t i = 0; i < *ndep; ++i) {
      if (!std::getline(in, line)) return std::nullopt;
      t = split_ws(line);
      if (t.size() != 2 || t[0] != "dep") return std::nullopt;
      const auto d = io::dec(t[1]);
      if (!d) return std::nullopt;
      deps.deps.push_back(*d);
    }
    map.set(*name, std::move(deps));
  }
  if (!std::getline(in, line) || line != "end") return std::nullopt;
  return map;
}

std::filesystem::path DepMap::path_in(const std::filesystem::path& cache_dir) {
  return cache_dir / "deps.map";
}

DepMap DepMap::load(const std::filesystem::path& cache_dir) {
  std::ifstream in(path_in(cache_dir), std::ios::binary);
  if (!in) {
    stat_depmap_invalid.bump();
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (auto map = parse(buf.str())) {
    stat_depmap_loads.bump();
    return std::move(*map);
  }
  stat_depmap_invalid.bump();
  return {};
}

bool DepMap::store(const std::filesystem::path& cache_dir, const DepMap& map) {
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  return publish_file(path_in(cache_dir), map.write());
}

}  // namespace ara::serve
