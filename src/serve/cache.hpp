// Persistent, content-addressed summary cache (`arac --cache-dir DIR`).
// One entry per translation unit, stored at <dir>/<key>.unit where <key> is
// the FNV-1a hash of (format version, analyzer version, analysis flags,
// source name, language, source text) — see SummaryCache::key_for and
// docs/serve.md. A hit replays the unit's serialized summary and skips the
// front end and local analysis entirely; any mismatch — absent file, bad
// magic, wrong key or version, truncated payload, checksum failure,
// unparsable summary — degrades to a miss, and a later store simply
// overwrites the bad entry. Corruption is therefore self-healing and can
// never crash the tool or poison its output. An entry the caller finds
// stale (a C unit whose imported shapes changed) is a miss as well, but
// stays on disk: it is well-formed. No operation takes a lock: entries
// are published by rename and evicted by unlink, so processes and threads
// sharing a directory never wait on each other.
#pragma once

#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "serve/summary.hpp"

namespace ara::serve {

/// Bumped whenever the summary format or the analysis itself changes
/// meaning; stale entries from older builds then miss and are rewritten.
/// v2: entries carry the unit's rendered diagnostics (warnings replay on
/// cache hits). v3: entries carry the unit's provenance cause records
/// (--explain / .provenance.jsonl replay on cache hits). v4: symbols may be
/// Kind::Import (cross-unit global import); the shapes they imported are
/// checked against the run's import index on every reuse, not keyed.
inline constexpr std::string_view kAnalyzerVersion = "openara-serve-4";

class SummaryCache {
 public:
  /// An empty `dir` (or enabled == false) disables the cache: every load
  /// misses and stores are dropped.
  SummaryCache(std::filesystem::path dir, bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Cache key for one unit. `flags` folds in every analysis option that
  /// could change the summary or its downstream use.
  [[nodiscard]] static std::string key_for(std::string_view source_name,
                                           std::string_view source_text, Language lang,
                                           std::string_view flags);

  /// Entry file path for a key (exposed for tests that corrupt entries).
  [[nodiscard]] std::filesystem::path entry_path(std::string_view key) const;

  /// Returns the cached summary, or nullopt on any miss (bumping the
  /// hit/miss — and, for invalid entries, eviction — counters). An entry
  /// that `current` rejects is a miss too, but is not evicted.
  [[nodiscard]] std::optional<UnitSummary> load(
      std::string_view key,
      const std::function<bool(const UnitSummary&)>& current = nullptr) const;

  /// Writes an entry atomically: the bytes go to a temp file whose name is
  /// unique to this call, which is then renamed over the entry, so a reader
  /// always opens one writer's complete entry. Failures are non-fatal: the
  /// cache is an accelerator, not a correctness dependency.
  bool store(std::string_view key, const UnitSummary& unit) const;

 private:
  std::filesystem::path dir_;
  bool enabled_ = false;
};

}  // namespace ara::serve
