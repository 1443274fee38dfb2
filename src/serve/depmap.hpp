// Dependency-aware invalidation for incremental re-analysis (`ara.deps.v1`).
// The content-hashed summary cache already makes an *unchanged* unit free to
// re-analyze; what it cannot express is that a unit whose own text is
// unchanged may still need re-analysis because something it depends on
// changed — a callee whose summary it links against, or a sibling unit whose
// file-scope declaration it imports. The DepMap records, per unit, exactly
// those edges (dependency = the unit defining a called extern procedure, or
// the unit declaring an imported global, both derived from the previous
// run's summaries) plus the set of global names imported. The reverse
// closure of a changed set then gives the minimal re-summarization front:
// changed units plus every transitive dependent. Persisted next to the
// summary cache as `deps.map` so plain `arac --cache-dir` runs and the
// long-lived daemon share one invalidation story; parsing is total —
// a corrupt map degrades to "invalidate everything", never to stale output.
#pragma once

#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace ara::serve {

/// One unit's outgoing edges, as of its last successful summarization.
struct UnitDeps {
  /// Lowercase names of globals this unit imports from siblings.
  std::vector<std::string> imports;
  /// Names of the units this unit depends on (callee-defining units and
  /// import-declaring units), deduplicated, sorted, never self.
  std::vector<std::string> deps;
};

class DepMap {
 public:
  /// Replaces (or adds) one unit's edges. Self-edges are dropped.
  void set(const std::string& unit, UnitDeps deps);

  /// Forgets a unit (it left the project).
  void remove(const std::string& unit);

  [[nodiscard]] const UnitDeps* find(const std::string& unit) const;
  [[nodiscard]] std::size_t size() const { return units_.size(); }
  [[nodiscard]] bool empty() const { return units_.empty(); }

  /// `changed` plus every unit that transitively depends on a member of
  /// `changed` (reverse-edge closure; cycles are handled by the visited
  /// set). Units unknown to the map pass through unchanged.
  [[nodiscard]] std::set<std::string> dependents_closure(
      const std::set<std::string>& changed) const;

  /// All unit names currently in the map, sorted.
  [[nodiscard]] std::vector<std::string> unit_names() const;

  /// Text serialization (`ara.deps.v1`, see docs/FORMATS.md). Parsing is
  /// total: any malformed input yields nullopt.
  [[nodiscard]] std::string write() const;
  [[nodiscard]] static std::optional<DepMap> parse(std::string_view text);

  /// Load from / atomically store to `<cache_dir>/deps.map`. load() returns
  /// an empty map when the file is absent or malformed; store() publishes
  /// through publish_file (no lock, no shared temp name) and is best-effort
  /// (the map is an accelerator, not a correctness dependency).
  [[nodiscard]] static DepMap load(const std::filesystem::path& cache_dir);
  static bool store(const std::filesystem::path& cache_dir, const DepMap& map);

  [[nodiscard]] static std::filesystem::path path_in(
      const std::filesystem::path& cache_dir);

 private:
  std::map<std::string, UnitDeps> units_;
};

}  // namespace ara::serve
