// The batch-analysis engine behind every local `arac` run (`--jobs N`
// workers, one by default; `--cache-dir DIR`) and every `arad` analyze:
// the serve subsystem's front door, sitting between the CLI and the
// compiler pipeline. It runs the per-unit phase — parse, lower, IPL local
// analysis, summarization — on a work-stealing thread pool, one task per
// translation unit, consulting the persistent summary cache first so
// unchanged files skip the front end entirely; then it joins the summaries
// in the serial link phase (serve/link.hpp) into the same .rgn/.dgn/.cfg
// outputs the whole-program library path (driver::Compiler) produces.
//
// A unit's summary is a function of its own name, language and text and
// the analysis flags, those being its cache key: units compile separately,
// and the link rebuilds everything cross-unit from all the summaries on
// every run, so an edit re-summarizes only the edited unit. The one input a
// summary takes from a sibling, the shape of each global a C unit imports,
// is checked whenever a summary is reused (serve/globals.hpp,
// imports_current).
//
// Output bytes are a function of the input sources and options only: not of
// --jobs, not of cache hits vs misses. tests/serve enforces this.
//
// Fault tolerance: each unit task runs inside an error barrier. A unit that
// fails — compile errors, a resource cap, the wall-clock watchdog, an I/O
// fault (real or injected), or any other exception — is demoted to a
// structured UnitFailure, and the link phase proceeds in degraded mode with
// the survivors. One hostile or unlucky unit can never take down the batch.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/layout.hpp"
#include "obs/eventlog.hpp"
#include "serve/link.hpp"
#include "serve/summary.hpp"
#include "support/limits.hpp"

namespace ara::serve {

struct BatchOptions {
  std::size_t jobs = 1;   // worker threads; 0 = hardware concurrency
  std::string cache_dir;  // empty = caching disabled
  bool use_cache = true;  // false = --no-cache (ignore and don't write entries)
  bool interprocedural = true;
  /// Per-unit resource guards, installed around each unit task (LimitScope).
  support::ResourceLimits limits;
  ir::LayoutOptions layout;
};

enum class UnitStatus : std::uint8_t {
  Analyzed,  // cache miss (or caching off): full frontend + local analysis
  Cached,    // summary replayed from the cache
  Failed,    // unit did not compile (see UnitReport::failure)
};

/// Why a unit failed, for the .failures.json report and the exit-code sink.
enum class FailureKind : std::uint8_t {
  Compile,   // source did not compile (diagnostics carry the errors)
  Resource,  // a ResourceLimits cap tripped (nesting, AST nodes, trip, arrays, memory)
  Timeout,   // the per-unit wall-clock watchdog expired
  Io,        // an I/O fault survived the retry policy
  Crash,     // any other exception escaped the unit's analysis
};

[[nodiscard]] std::string_view to_string(FailureKind kind);

struct UnitFailure {
  FailureKind kind = FailureKind::Crash;
  std::string reason;  // human-readable, single line
};

struct UnitReport {
  std::string source_name;
  UnitStatus status = UnitStatus::Analyzed;
  std::string diagnostics;  // rendered unit-compile diagnostics ("" if clean)
  std::optional<UnitFailure> failure;  // set iff status == Failed
};

struct BatchResult {
  /// Clean success: every unit analyzed and the link succeeded.
  bool ok = false;
  /// Degraded success: `failed_units` > 0 but the survivors linked. The
  /// link artifacts cover the surviving units only (arac exits 2).
  bool partial = false;
  std::vector<UnitReport> units;  // in input order
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t failed_units = 0;
  /// Misses whose resident or cached summary matched the unit's key but
  /// was stale: a C unit whose imported globals changed shape or are no
  /// longer declared (serve/globals.hpp, imports_current). A subset of
  /// cache_misses.
  std::uint64_t invalidated_units = 0;
  /// Cache hits served from IncrementalState memory without touching disk
  /// (daemon warm state); a subset of cache_hits.
  std::uint64_t resident_hits = 0;
  /// Valid when ok or partial: rows, .dgn project, .cfg text, the
  /// reconstructed program, and link diagnostics.
  LinkResult link;
  /// Provenance cause records, merged in (unit, seq) order: per-unit records
  /// in input order (replayed from the cache on hits), then the serial link
  /// phase's records under obs::kLinkUnit. Byte-stable across --jobs values
  /// and cache states.
  std::vector<obs::ProvRecord> provenance;
  /// Each unit's lifecycle events in unit order, then stage order (empty
  /// when telemetry is off); t_ns counts from the start of the batch.
  std::vector<obs::EventRecord> events;
};

/// One in-memory translation unit.
struct SourceBuffer {
  std::string name;  // display/object name (file name, not path)
  std::string text;
  Language lang = Language::Fortran;
};

/// Loads a source file, choosing the language by extension (`.c`/`.h` are
/// C, anything else Fortran; driver::Compiler::add_file loads through it
/// too). Returns nullopt if unreadable; `warning` (when non-null) receives
/// the unknown-extension message, if any.
[[nodiscard]] std::optional<SourceBuffer> read_source(const std::filesystem::path& path,
                                                      std::string* warning);

/// Compiles one unit alone into `program`, as the engine does on a cache
/// miss: calls to procedures the unit does not define are deferred to the
/// link phase, and undeclared C globals resolve against `globals` (the
/// build_global_index of every unit in the run). `diagnostics` receives the
/// rendered unit diagnostics; `externs` and `imports` are filled as
/// fe::compile_program fills them. False when the unit does not compile.
[[nodiscard]] bool compile_unit(const SourceBuffer& source, const fe::GlobalImportTable& globals,
                                ir::Program& program, std::string* diagnostics,
                                std::vector<fe::ExternRef>* externs = nullptr,
                                std::vector<std::string>* imports = nullptr);

/// One unit summary held in memory across runs (daemon warm state).
struct ResidentUnit {
  std::string key;      // cache key the summary was produced under
  UnitSummary summary;  // reused verbatim while the key (and imports) match
};

/// Warm analysis state carried across run_batch calls on the same project:
/// the last run's unit summaries, so a warm daemon never re-reads the disk
/// cache for unchanged units.
struct IncrementalState {
  std::map<std::string, ResidentUnit> resident;  // unit name -> last summary
  /// Rough resident footprint (symbols + records + texts), for the daemon's
  /// LRU memory budget.
  [[nodiscard]] std::size_t resident_bytes() const;
};

/// Runs the full batch: parallel per-unit phase, then serial link. A unit
/// whose key matches a resident or cached summary replays it, if every
/// global it imported still has that shape in this run's import index;
/// every other unit is compiled and summarized again.
[[nodiscard]] BatchResult run_batch(const std::vector<SourceBuffer>& sources,
                                    const BatchOptions& opts, const std::string& name);

/// As above, with caller-owned warm state (the daemon's per-project state).
/// `inc` may be null; when non-null it is consulted for resident summaries
/// and refreshed with this run's summaries after the batch.
[[nodiscard]] BatchResult run_batch(const std::vector<SourceBuffer>& sources,
                                    const BatchOptions& opts, const std::string& name,
                                    IncrementalState* inc);

}  // namespace ara::serve
