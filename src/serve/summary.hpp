// Per-translation-unit analysis summaries: the serve engine's unit of work
// and of caching. A UnitSummary is everything the link phase needs from one
// source file — its symbols (in symbol-table creation order, so the linker
// can replay the whole-program ST layout), each procedure's local access
// records, side effects and call sites, unresolved external references, and
// the unit's rendered CFG text. This mirrors OpenUH's IPL, which "gathers
// ... procedure summary information from each compilation unit" into the
// object file for IPA to consume later (§IV-A); persisting the same data
// keyed by content hash is what makes incremental re-analysis possible.
//
// The text serialization (write_unit_summary / parse_unit_summary) is the
// cache payload format documented in docs/FORMATS.md. Parsing is total:
// any malformed input yields nullopt — a corrupt cache entry must become a
// cache miss, never undefined behavior.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "frontend/sema.hpp"
#include "ipa/summary.hpp"
#include "ir/program.hpp"
#include "obs/provenance.hpp"

namespace ara::serve {

/// One array dimension as declared (mirror of ir::ArrayDim).
struct SymDim {
  std::optional<std::int64_t> lb;
  std::optional<std::int64_t> ub;
  std::string lb_sym;
  std::string ub_sym;
};

/// One unit-local symbol-table entry, in creation order. The link phase
/// replays these into the whole-program table in the exact order the
/// whole-program front end would have created them, which is what keeps
/// serve output byte-identical run to run (addresses, map iteration order
/// and merge order all follow StIdx).
struct SymInfo {
  enum class Kind : std::uint8_t {
    Proc,    // procedure defined in this unit
    Extern,  // procedure referenced but not defined here (serve mode only)
    Global,  // file-scope / COMMON variable (unifies by name at link)
    Formal,  // procedure formal parameter
    Local,   // procedure-local variable
    Import,  // global referenced here but declared by a sibling unit: the
             // link phase binds it by name to the declaring unit's Global
             // instead of replaying a new ST (serve mode only, v4)
  };
  Kind kind = Kind::Local;
  std::string name;       // source spelling
  std::string owner;      // lowercase defining procedure ("" for globals/procs)
  std::uint32_t formal_pos = 0;  // 1-based (Formal only)
  std::uint32_t line = 0;        // declaration position
  std::uint32_t col = 0;
  // Type (scalar or array).
  bool is_array = false;
  ir::Mtype mtype = ir::Mtype::Void;
  bool row_major = true;
  bool noncontiguous = false;
  bool coarray = false;
  std::vector<SymDim> dims;  // arrays only, source order
};

/// One local access record (USE/DEF/FORMAL/PASSED row) of a procedure.
/// `sym` is a 0-based index into UnitSummary::symbols.
struct RecordSummary {
  std::uint32_t sym = 0;
  regions::AccessMode mode = regions::AccessMode::Use;
  bool remote = false;
  std::string image;
  regions::Region region;
  std::uint64_t refs = 1;
  std::uint32_t line = 0;
};

/// One (symbol, mode) -> regions side-effect entry.
struct EffectSummary {
  std::uint32_t sym = 0;
  regions::AccessMode mode = regions::AccessMode::Use;
  ipa::ModeRegions regions;
};

/// One call-site actual argument, pre-digested for formal->actual
/// translation: either an array symbol, an affine scalar expression over
/// the caller's variables, or neither (untranslatable).
struct ActualSummary {
  bool is_array = false;
  std::uint32_t array_sym = 0;  // valid when is_array
  std::optional<regions::LinExpr> affine;
};

/// One call site, in WHIRL tree-walk order (the order CallGraph::build
/// collects them, so link-phase propagation visits call sites identically).
struct CallSummary {
  std::string callee;  // lowercase name
  std::uint32_t line = 0;
  std::vector<ActualSummary> actuals;
};

/// One procedure's summary. `sym` indexes the procedure's own entry in
/// UnitSummary::symbols; records/effects/callsites are in analysis order.
struct ProcSummary {
  std::uint32_t sym = 0;
  std::vector<RecordSummary> records;
  std::vector<EffectSummary> effects;
  std::vector<CallSummary> callsites;
};

/// An unresolved procedure reference (diagnosed at link if no unit defines
/// the name).
struct ExternSummary {
  std::string name;  // lowercase
  std::uint32_t line = 0;
};

struct UnitSummary {
  std::string source_name;  // as registered (file name, not path)
  Language language = Language::Fortran;
  std::vector<SymInfo> symbols;    // unit StIdx i lives at symbols[i-1]
  std::vector<ProcSummary> procs;  // in definition (lowering) order
  std::vector<ExternSummary> externs;
  std::string cfg_text;  // write_cfg output minus its header line
  /// Rendered non-error diagnostics of the clean compile ("" when silent),
  /// cached with the summary so warnings replay byte-identically on hits.
  std::string diagnostics;
  /// Provenance cause records captured while analyzing this unit, in capture
  /// (seq) order. Cached with the summary (v3) so warm-cache runs replay
  /// --explain / .provenance.jsonl byte-identically; `unit` is rewritten to
  /// the current input index on load.
  std::vector<obs::ProvRecord> provenance;
};

/// Builds the summary of one separately-compiled unit (a Program holding
/// exactly one source file, compiled with SemaOptions::external_calls).
/// Runs the IPL local analysis on every procedure. `imported_globals` names
/// (lowercase) the globals sema resolved from a cross-unit import table;
/// their symbols are marked Kind::Import.
[[nodiscard]] UnitSummary summarize_unit(const ir::Program& program,
                                         const std::vector<fe::ExternRef>& externs,
                                         const std::vector<std::string>& imported_globals = {});

/// Cache payload serialization (see docs/FORMATS.md, "unit summary").
[[nodiscard]] std::string write_unit_summary(const UnitSummary& unit);
[[nodiscard]] std::optional<UnitSummary> parse_unit_summary(std::string_view text);

}  // namespace ara::serve
