// The serve engine's link phase: joins per-unit summaries into whole-program
// analysis results. This is the serial back half of batch analysis — the
// analogue of OpenUH's IPA main stage reading every unit's IPL summary out
// of the object files (§IV-A) — and it is deliberately independent of WHIRL:
// everything it consumes comes from UnitSummary, so cached units link
// exactly like freshly analyzed ones.
//
// What is unique to the link: replaying the whole-program symbol table,
// reporting link diagnostics (redefinitions, unresolved externs and
// imports), and remapping each unit's summaries — call sites, local
// records, side effects — onto the linked symbols as an ipa::CallGraph and
// local summaries. Propagation (ipa::propagate), the .rgn rows
// (ipa::build_rows) and the .dgn inventory (ipa::dgn_project) are the
// whole-program pipeline's own code.
//
// Determinism contract: the linked symbol table is replayed in the same
// creation order the whole-program front end would use (all units'
// procedures, then canonical globals in first-declaration order, then each
// procedure's formals and locals). StIdx values therefore match the
// monolithic pipeline, which makes map iteration order, region merge order
// and the static data layout — and hence every byte of the .rgn output —
// independent of how many workers produced the summaries and of whether
// they came from the cache.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ipa/analyzer.hpp"
#include "ir/layout.hpp"
#include "rgn/dgn.hpp"
#include "serve/summary.hpp"
#include "support/diagnostics.hpp"

namespace ara::serve {

struct LinkOptions {
  bool interprocedural = true;
  /// Degraded mode: some units failed to analyze and were dropped, so the
  /// survivors may legitimately call procedures no remaining unit defines.
  /// Unresolved externs are then warnings (the call's effects are simply
  /// unknown), not errors, and call edges into the missing procedures are
  /// skipped by propagation instead of aborting the link.
  bool degraded = false;
  ir::LayoutOptions layout;
};

struct LinkResult {
  bool ok = false;
  /// Reconstructed whole-program symbol table + sources (no WHIRL trees).
  std::unique_ptr<ir::Program> program;
  DiagnosticEngine diags;
  std::vector<rgn::RegionRow> rows;
  rgn::DgnProject project;
  std::string cfg_text;
};

/// Links `units` (in command-line order; `texts` holds the matching source
/// text for diagnostics and the project browser). Errors — duplicate
/// procedure definitions, unresolved external calls — are reported through
/// LinkResult::diags with ok == false.
[[nodiscard]] LinkResult link_units(const std::vector<UnitSummary>& units,
                                    const std::vector<std::string>& texts,
                                    const LinkOptions& opts, const std::string& name);

}  // namespace ara::serve
