// Reusable warm project state: everything the analysis daemon keeps alive
// for one project between requests. ProjectState owns the engine's
// IncrementalState (the resident unit summaries) and the last completed
// result as an immutable snapshot. analyze() serializes per
// project and publishes a fresh snapshot atomically; query()/explain()
// readers hold a shared_ptr to whatever snapshot was current when they
// arrived — so while a re-analysis is in flight, clients are answered from
// the previous result set instead of blocking or erroring. The same class
// backs one-shot embedding (tests, tools): it has no socket or thread of
// its own.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/engine.hpp"

namespace ara::serve {

/// Immutable result of one completed analysis: the rows and provenance
/// records, and the `.dgn`/`.cfg` text. `query` renders the `.rgn` and the
/// provenance JSONL from the rows and records when a client asks for them,
/// byte-identical to what a cold batch `arac` run would write, so an
/// analyze never pays for text no reply reads.
struct ProjectSnapshot {
  bool ok = false;
  bool partial = false;
  std::uint64_t generation = 0;  // 1 for the first analysis, then +1 each
  std::vector<UnitReport> units;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t resident_hits = 0;
  std::uint64_t invalidated_units = 0;
  std::uint64_t failed_units = 0;
  /// Valid when ok or partial.
  std::vector<rgn::RegionRow> rows;
  /// The indices into `rows` of each array's rows, in row order, keyed by
  /// lowercase array name: what a `query` for one array reads.
  std::unordered_map<std::string, std::vector<std::uint32_t>> rows_by_array;
  std::string dgn_text;
  std::string cfg_text;
  std::vector<obs::ProvRecord> provenance;  // (unit, seq) merged order
  std::string link_diagnostics;
  /// Rough resident footprint of the project when this snapshot was
  /// published (incremental state, `.dgn`/`.cfg` text, rows, their index
  /// and the provenance records), for the daemon's LRU memory budget.
  /// Recorded at publication so reading it never waits on a running
  /// analysis.
  std::size_t resident_bytes = 0;
};

class ProjectState {
 public:
  explicit ProjectState(std::string name) : name_(std::move(name)) { touch(); }

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Runs the incremental batch over `sources` (each unit whose resident
  /// summary is still current replays it) and publishes the result as the
  /// new snapshot (returned). Serialized per
  /// project; concurrent snapshot()/readers are never blocked.
  std::shared_ptr<const ProjectSnapshot> analyze(const std::vector<SourceBuffer>& sources,
                                                 const BatchOptions& opts);

  /// The latest published snapshot; nullptr before the first analyze().
  [[nodiscard]] std::shared_ptr<const ProjectSnapshot> snapshot() const;

  /// The latest snapshot's resident_bytes (0 before the first analyze()).
  /// Never blocks on an analysis in flight.
  [[nodiscard]] std::size_t resident_bytes() const;

  /// LRU bookkeeping.
  void touch() { last_used_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] std::chrono::steady_clock::time_point last_used() const {
    return last_used_;
  }

 private:
  std::string name_;
  std::mutex analyze_mu_;          // one analysis at a time per project
  mutable std::mutex snap_mu_;     // guards the snapshot_ pointer swap
  std::shared_ptr<const ProjectSnapshot> snapshot_;
  IncrementalState inc_;
  std::uint64_t generation_ = 0;
  std::chrono::steady_clock::time_point last_used_{};
};

}  // namespace ara::serve
