#include "ipa/interproc.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "obs/provenance.hpp"
#include "obs/stats.hpp"
#include "support/string_utils.hpp"

namespace ara::ipa {

ARA_STATISTIC(stat_summaries_propagated, "ipa.summaries_propagated",
              "Callee side-effect summaries translated into callers");
ARA_STATISTIC(stat_callsites, "ipa.callsites_translated", "Call sites translated");
ARA_STATISTIC(stat_passes, "ipa.propagation_passes", "Bottom-up propagation passes run");
ARA_STATISTIC(stat_interproc_records, "ipa.interproc_records",
              "IDEF/IUSE records generated from callee effects");
ARA_STATISTIC(stat_unprojected_dims, "regions.unprojected_dims",
              "Declared/translated dimensions left UNPROJECTED");

using regions::AccessMode;
using regions::Bound;
using regions::DimAccess;
using regions::LinExpr;
using regions::Region;

namespace {

using EffectKey = std::pair<ir::StIdx, AccessMode>;

/// What a caller needs of a callee to translate its effects.
struct CalleeInfo {
  std::vector<ir::StIdx> formals;                         // by position (0-based)
  std::map<std::string, std::size_t> formal_scalar_pos;   // lowercase name -> position
  std::map<std::string, bool, std::less<>> local_scalar;  // lowercase names of local scalars
};

/// Every node's CalleeInfo, from one pass over the symbol table.
std::vector<CalleeInfo> callee_infos(const ir::SymbolTable& symtab, const CallGraph& cg) {
  std::vector<std::uint32_t> node_of(symtab.st_count() + 1, kNoNode);
  for (std::uint32_t i = 0; i < cg.size(); ++i) node_of[cg.node(i).proc_st] = i;
  std::vector<CalleeInfo> infos(cg.size());
  std::vector<std::vector<std::pair<std::uint32_t, ir::StIdx>>> formals(cg.size());
  for (ir::StIdx idx : symtab.all_sts()) {
    const ir::St& st = symtab.st(idx);
    if (st.owner_proc == ir::kInvalidSt || node_of[st.owner_proc] == kNoNode) continue;
    CalleeInfo& info = infos[node_of[st.owner_proc]];
    const bool is_array = symtab.ty(st.ty).is_array();
    if (st.storage == ir::StStorage::Formal) {
      formals[node_of[st.owner_proc]].emplace_back(st.formal_pos, idx);
      if (!is_array) info.formal_scalar_pos[to_lower(st.name)] = st.formal_pos - 1;
    } else if (st.storage == ir::StStorage::Local && !is_array) {
      info.local_scalar[to_lower(st.name)] = true;
    }
  }
  for (std::uint32_t n = 0; n < cg.size(); ++n) {
    std::sort(formals[n].begin(), formals[n].end());
    for (const auto& [pos, idx] : formals[n]) infos[n].formals.push_back(idx);
  }
  return infos;
}

/// True when `a` and `b` hold the same regions under the same keys. The
/// reference counts may differ: they grow with every pass around a cycle.
bool same_regions(const SideEffects& a, const SideEffects& b) {
  return std::equal(a.effects.begin(), a.effects.end(), b.effects.begin(), b.effects.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first && x.second.regions == y.second.regions;
                    });
}

}  // namespace

Region translate_region(const Region& r,
                        const std::map<std::string, std::optional<LinExpr>, std::less<>>& subst,
                        const std::map<std::string, bool, std::less<>>& callee_locals,
                        const obs::ProvCtx* prov) {
  Region out;
  std::int32_t dim = 0;
  for (const DimAccess& d : r.dims()) {
    std::string poison_var;     // first variable that poisoned this dim
    bool poison_local = false;  // callee local (vs non-affine actual)
    auto translate_bound = [&](const Bound& b) -> Bound {
      if (!b.known()) return b;
      LinExpr e = b.expr;
      // Substitute formal scalars; poison callee locals. named_terms() keeps
      // the map era's name-sorted substitution order, which is observable
      // when two formals' actuals mention each other's names.
      for (const auto& [name, coef] : b.expr.named_terms()) {
        if (const auto it = subst.find(name); it != subst.end()) {
          if (!it->second) {
            if (poison_var.empty()) poison_var = name;
            return Bound::unprojected();
          }
          e = e.substituted(name, *it->second);
        } else if (callee_locals.count(name) != 0) {
          if (poison_var.empty()) {
            poison_var = name;
            poison_local = true;
          }
          return Bound::unprojected();
        }
      }
      return Bound::affine(b.kind, std::move(e));
    };
    DimAccess nd;
    nd.lb = translate_bound(d.lb);
    nd.ub = translate_bound(d.ub);
    nd.stride = d.stride;
    if ((d.lb.known() && !nd.lb.known()) || (d.ub.known() && !nd.ub.known())) {
      stat_unprojected_dims.bump();
    }
    if (prov != nullptr && obs::prov_capturing()) {
      if (!d.lb.known() || !d.ub.known()) {
        obs::prov_record(obs::CauseKind::CalleeImprecision, *prov, dim,
                         "callee summary dimension is already imprecise at the call site");
      } else if (!poison_var.empty()) {
        obs::prov_record(
            poison_local ? obs::CauseKind::CalleeLocalEscape : obs::CauseKind::ActualNotAffine,
            *prov, dim,
            poison_local ? "bound mentions callee-local '" + poison_var + "'"
                         : "actual bound to formal '" + poison_var + "' is not affine");
      }
    }
    out.push_dim(std::move(nd));
    ++dim;
  }
  return out;
}

InterprocResult propagate(const ir::Program& program, const CallGraph& cg,
                          std::vector<SideEffects> local_effects,
                          std::vector<AccessRecord> records, const AnalyzeOptions& opts) {
  const ir::SymbolTable& symtab = program.symtab;
  InterprocResult result;
  if (!opts.include_scalars) {
    std::erase_if(records, [&](const AccessRecord& rec) {
      return rec.region.rank() == 0 && !symtab.ty(symtab.st(rec.array).ty).is_array();
    });
  }
  result.records = std::move(records);
  result.side_effects = local_effects;
  if (!opts.interprocedural) return result;

  const std::vector<CalleeInfo> infos = callee_infos(symtab, cg);
  // Per node, the entries that were widened or were translated from a
  // widened callee entry; `marks_grew` says a pass added one.
  std::vector<std::set<EffectKey>> widened(cg.size());
  bool marks_grew = false;

  auto bind = [&](ir::StIdx formal, ir::StIdx actual) {
    const auto [it, inserted] = result.formal_binding.try_emplace(formal, actual);
    if (!inserted && it->second != actual) it->second = ir::kInvalidSt;  // ambiguous
  };

  // One call-site translation: the callee's (array, mode) effects rewritten
  // onto the caller's symbols, formal scalars substituted with the actuals'
  // affine values; formal arrays are bound to array actuals on the way.
  // `attribute` turns on provenance records — only the final IDEF/IUSE
  // generation sweep sets it, so the fixed-point passes never duplicate
  // cause records.
  auto translate_call = [&](std::uint32_t caller, const CallSite& cs, bool attribute) {
    std::vector<std::tuple<ir::StIdx, AccessMode, ModeRegions>> out;
    stat_callsites.bump();
    const CalleeInfo& info = infos[cs.callee];
    std::map<std::string, std::optional<LinExpr>, std::less<>> subst;
    for (const auto& [name, pos] : info.formal_scalar_pos) {
      subst[name] = pos < cs.actuals.size() ? cs.actuals[pos].affine : std::nullopt;
    }
    for (const auto& [key, mr] : result.side_effects[cs.callee].effects) {
      const auto& [callee_st, mode] = key;
      const ir::St& st = symtab.st(callee_st);
      ir::StIdx caller_st = ir::kInvalidSt;
      if (st.storage == ir::StStorage::Global) {
        caller_st = callee_st;
      } else if (st.storage == ir::StStorage::Formal && st.formal_pos - 1 < cs.actuals.size()) {
        caller_st = cs.actuals[st.formal_pos - 1].array;
        if (caller_st != ir::kInvalidSt && symtab.ty(st.ty).is_array()) bind(callee_st, caller_st);
      }
      if (caller_st == ir::kInvalidSt) continue;

      const obs::ProvCtx ctx{symtab.st(cg.node(caller).proc_st).name, symtab.st(caller_st).name,
                             program.sources.name(cg.node(caller).file), cs.loc.line};
      const obs::ProvCtx* prov = attribute && obs::prov_capturing() ? &ctx : nullptr;
      if (widened[cs.callee].count(key) != 0) {
        marks_grew = widened[caller].emplace(caller_st, mode).second || marks_grew;
        if (prov != nullptr) {
          obs::prov_record(obs::CauseKind::RecursionWidening, ctx, -1,
                           "the callee's summary of '" + st.name + "' did not converge in " +
                               std::to_string(kMaxPropagationPasses) +
                               " passes and was widened to its declared extent");
        }
      }
      ModeRegions translated;
      translated.refs = mr.refs;
      for (const Region& r : mr.regions) {
        // Ambient attribution for widenings inside merge — final sweep only,
        // so fixed-point passes don't duplicate records.
        std::optional<obs::ProvScope> scope;
        if (prov != nullptr) scope.emplace(ctx);
        translated.merge(translate_region(r, subst, info.local_scalar, prov), 0);
      }
      out.emplace_back(caller_st, mode, std::move(translated));
    }
    stat_summaries_propagated.bump(out.size());
    return out;
  };

  // Bottom-up passes: one is exact for an acyclic graph; recursion iterates
  // until nothing changes. From pass kMaxPropagationPasses on, a node that
  // closes a cycle replaces each entry whose regions still change by the
  // array's declared extent, which covers every in-bounds access and stays
  // put. Each such pass that changes any regions widens one more entry, so
  // the loop ends. It also runs until the widened marks stop spreading, so
  // every call site whose summary depends on a widening can name it.
  for (int pass = 1;; ++pass) {
    stat_passes.bump();
    const bool widen = pass >= kMaxPropagationPasses;
    bool changed = false;
    marks_grew = false;
    for (const std::uint32_t n : cg.bottom_up()) {
      SideEffects next = local_effects[n];
      for (const CallSite& cs : cg.node(n).callsites) {
        if (cs.callee == kNoNode) continue;
        for (auto& [st, mode, mr] : translate_call(n, cs, false)) {
          next.effects[{st, mode}].merge_all(mr);
        }
      }
      SideEffects& prev = result.side_effects[n];
      if (widen && cg.node(n).closes_cycle) {
        for (auto& [key, mr] : next.effects) {
          const auto it = prev.effects.find(key);
          if (it != prev.effects.end() && it->second.regions == mr.regions) continue;
          widened[n].insert(key);
          mr.regions = {declared_region(symtab.ty(symtab.st(key.first).ty))};
        }
      }
      changed = changed || (widen ? !same_regions(next, prev) : !(next == prev));
      prev = std::move(next);
    }
    if ((!changed && !marks_grew) || !cg.has_cycle()) break;
  }

  // Also record formal bindings for call sites whose callee never touches
  // the formal (pure pass-through).
  for (const CGNode& node : cg.nodes()) {
    for (const CallSite& cs : node.callsites) {
      if (cs.callee == kNoNode) continue;
      const std::vector<ir::StIdx>& formals = infos[cs.callee].formals;
      for (std::size_t pos = 0; pos < formals.size() && pos < cs.actuals.size(); ++pos) {
        if (symtab.ty(symtab.st(formals[pos]).ty).is_array() &&
            cs.actuals[pos].array != ir::kInvalidSt) {
          bind(formals[pos], cs.actuals[pos].array);
        }
      }
    }
  }

  // Generate IDEF/IUSE rows per call site from the callee's final effects.
  for (std::uint32_t n = 0; n < cg.size(); ++n) {
    for (const CallSite& cs : cg.node(n).callsites) {
      if (cs.callee == kNoNode) continue;
      for (auto& [st, mode, mr] : translate_call(n, cs, true)) {
        bool first = true;
        for (Region& r : mr.regions) {
          AccessRecord rec;
          rec.array = st;
          rec.mode = mode;
          rec.interproc = true;
          rec.region = std::move(r);
          rec.refs = first ? mr.refs : 0;
          first = false;
          rec.scope_proc = cg.node(n).proc_st;
          rec.file = cg.node(cs.callee).file;
          rec.line = cs.loc.line;
          stat_interproc_records.bump();
          result.records.push_back(std::move(rec));
        }
      }
    }
  }
  return result;
}

std::uint64_t resolve_addr(ir::StIdx st, const ir::Program& program,
                           const std::map<ir::StIdx, ir::StIdx>& formal_binding) {
  ir::StIdx cur = st;
  for (int depth = 0; depth < 16; ++depth) {
    const ir::St& sym = program.symtab.st(cur);
    if (sym.storage != ir::StStorage::Formal) return sym.addr;
    const auto it = formal_binding.find(cur);
    if (it == formal_binding.end() || it->second == ir::kInvalidSt) return 0;
    cur = it->second;
  }
  return 0;
}

}  // namespace ara::ipa
