// Persistent, content-addressed summary cache (`arac --cache-dir DIR`).
// One entry per translation unit, stored at <dir>/<key>.unit where <key> is
// the FNV-1a hash of (format version, analyzer version, analysis flags,
// source name, language, source text) — see SummaryCache::key_for and
// docs/serve.md. A hit replays the unit's serialized summary and skips the
// front end and local analysis entirely; any mismatch — absent file, bad
// magic, wrong key or version, truncated payload, checksum failure,
// unparsable summary — degrades to a miss, and a later store simply
// overwrites the bad entry. Corruption is therefore self-healing and can
// never crash the tool or poison its output. No operation takes a lock:
// entries are published by rename (publish_file) and evicted by unlink, so
// processes and threads sharing a directory never wait on each other.
#pragma once

#include <filesystem>
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
/// Kind::Import (cross-unit global import); C unit keys also fold in the
/// import-table shapes their undeclared references resolved against.
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

  /// Cheap existence probe (no read, no validation, no counters): used by
  /// the invalidation pre-pass to classify units as changed vs reusable. A
  /// corrupt entry probes true and simply misses at load() time.
  [[nodiscard]] bool contains(std::string_view key) const;

  /// Returns the cached summary, or nullopt on any miss (bumping the
  /// hit/miss — and, for invalid entries, eviction — counters).
  [[nodiscard]] std::optional<UnitSummary> load(std::string_view key) const;

  /// Writes an entry atomically through publish_file. Failures are
  /// non-fatal: the cache is an accelerator, not a correctness dependency.
  bool store(std::string_view key, const UnitSummary& unit) const;

 private:
  std::filesystem::path dir_;
  bool enabled_ = false;
};

/// Publishes `bytes` at `target` without a lock: writes them to a temp file
/// beside it whose name is unique to this call (`<target>.tmp.<pid>.<n>`,
/// `n` from a per-process counter), then renames that over `target`.
/// Concurrent publishers of one path, threads or processes, never share a
/// temp file, so a reader always opens one publisher's complete bytes. Used
/// for every file written into a cache directory (entries and `deps.map`).
/// Returns false, with the temp file removed, when the write or the rename
/// fails.
bool publish_file(const std::filesystem::path& target, std::string_view bytes);

}  // namespace ara::serve
