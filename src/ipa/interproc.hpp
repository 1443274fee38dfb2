// IPA: the main interprocedural phase. Propagates each procedure's array
// side effects bottom-up over the call graph, mapping formals to actuals in
// the Creusillet style ("later expanded by Creusillet to support mapping
// formal to actual parameters", §III): at every call site the callee's
// DEF/USE regions on its formal arrays are rewritten onto the caller's
// actual arrays, and symbolic bounds naming callee formal scalars are
// substituted with the actual argument expressions. The per-call-site
// results are the IDEF/IUSE rows of Fig 1. Recursion is handled by iterating
// to a fixpoint, widened when it does not converge (see `propagate`).
//
// Both pipelines run this one pass, as the paper's IPA stage reads the
// summaries IPL gathered per unit (§IV-A): ipa::analyze feeds it the WHIRL
// call graph, and the serve engine's link phase a call graph and local
// summaries rebuilt from unit summaries.
#pragma once

#include <map>

#include "ipa/callgraph.hpp"
#include "ipa/local.hpp"

namespace ara::ipa {

/// Mirrors the paper's compile flags (§V-B step 1): `-IPA:array_section:
/// array_summary` enables interprocedural propagation; `-dragon` keeps
/// per-reference rows for the GUI.
struct AnalyzeOptions {
  bool interprocedural = true;
  bool include_scalars = true;  // scalar formal/global DEF/USE rows (Fig 12's CLASS)
};

/// Bottom-up passes a recursive call graph gets before the entries still
/// changing are widened.
inline constexpr int kMaxPropagationPasses = 5;

/// Rewrites one callee region into a caller's context. `subst` maps callee
/// formal-scalar names to the actual argument's affine value (or nullopt
/// when the actual is not affine); names in `callee_locals` are meaningless
/// to the caller and poison their bound to UNPROJECTED. When `prov` is
/// non-null (the final IDEF/IUSE generation sweep, never the fixed-point
/// passes), every poisoned or inherited-imprecise dimension is attributed
/// to the provenance ledger.
[[nodiscard]] regions::Region translate_region(
    const regions::Region& r,
    const std::map<std::string, std::optional<regions::LinExpr>, std::less<>>& subst,
    const std::map<std::string, bool, std::less<>>& callee_locals,
    const obs::ProvCtx* prov = nullptr);

struct InterprocResult {
  /// Transitive side effects per call-graph node index.
  std::vector<SideEffects> side_effects;
  /// The record stream: the local records (scalars dropped unless
  /// include_scalars), then the IDEF/IUSE records generated at call sites
  /// (caller scope) in node and call-site order.
  std::vector<AccessRecord> records;
  /// Formal array -> the one actual array bound to it (when unambiguous);
  /// used to resolve a FORMAL row's Mem_Loc to the actual's address.
  std::map<ir::StIdx, ir::StIdx> formal_binding;
};

/// The interprocedural pass over `cg`. `local_effects[i]` holds node i's
/// local side effects and `records` every node's local records in node
/// order; both are consumed. Names, formals and locals of every procedure
/// come from `program.symtab`. Without `opts.interprocedural` the side
/// effects stay local and no IDEF/IUSE record is generated.
///
/// Recursion iterates until no summary changes. If a recursive cycle still
/// changes after kMaxPropagationPasses passes, every (array, mode) entry
/// whose regions still change at a node closing the cycle is pinned to the
/// array's declared extent, and each call site reading a pinned entry, or
/// an entry translated from one (a caller of the cycle, or a member that
/// does not close it), records a RecursionWidening provenance cause.
[[nodiscard]] InterprocResult propagate(const ir::Program& program, const CallGraph& cg,
                                        std::vector<SideEffects> local_effects,
                                        std::vector<AccessRecord> records,
                                        const AnalyzeOptions& opts);

/// Resolves a formal's storage address by chasing its (unambiguous)
/// actual-binding chain; 0 when unbound or ambiguous.
[[nodiscard]] std::uint64_t resolve_addr(ir::StIdx st, const ir::Program& program,
                                         const std::map<ir::StIdx, ir::StIdx>& formal_binding);

}  // namespace ara::ipa
