// Top-level array region analysis: Algorithm 1 of the paper. Traverses the
// call graph, runs IPL local summaries, propagates them interprocedurally
// (when `-IPA:array_section:array_summary` is on), computes access densities
// and assembles the `.rgn` rows for Dragon.
#pragma once

#include <map>
#include <vector>

#include "ipa/callgraph.hpp"
#include "ipa/interproc.hpp"
#include "ipa/local.hpp"
#include "rgn/dgn.hpp"
#include "rgn/region_row.hpp"

namespace ara::ipa {

struct AnalysisResult {
  CallGraph callgraph;
  std::vector<AccessRecord> records;          // local + interprocedural
  std::vector<SideEffects> side_effects;      // per call-graph node
  std::map<ir::StIdx, ir::StIdx> formal_binding;
  std::vector<rgn::RegionRow> rows;           // the .rgn table

  /// Side effects of a procedure by name; nullptr when unknown.
  [[nodiscard]] const SideEffects* effects_of(std::string_view proc,
                                              const ir::Program& program) const;
};

[[nodiscard]] AnalysisResult analyze(const ir::Program& program, const AnalyzeOptions& opts = {});

/// Rebuilds only the display rows from the records (used after filtering).
[[nodiscard]] std::vector<rgn::RegionRow> build_rows(const ir::Program& program,
                                                     const AnalysisResult& result);

/// The .dgn project inventory: the program's files, every call-graph node
/// (entry = no callers) and every call edge.
[[nodiscard]] rgn::DgnProject dgn_project(const ir::Program& program, const CallGraph& cg,
                                          const std::string& name);

}  // namespace ara::ipa
