#include "serve/link.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "ipa/interproc.hpp"
#include "obs/histogram.hpp"
#include "obs/provenance.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "support/string_utils.hpp"

namespace ara::serve {

ARA_STATISTIC(stat_units_linked, "serve.units_linked", "Unit summaries joined by the link phase");
ARA_STATISTIC(stat_link_records, "serve.link_interproc_records",
              "IDEF/IUSE records generated at link time");

ARA_HISTOGRAM(hist_unit_link, "serve.unit_link_ns",
              "Per-unit link latency (symbol replay + record translation)", "ns");

namespace {

ir::TyIdx make_ty(ir::SymbolTable& symtab, const SymInfo& s) {
  if (!s.is_array) return symtab.make_scalar_ty(s.mtype);
  std::vector<ir::ArrayDim> dims;
  dims.reserve(s.dims.size());
  for (const SymDim& d : s.dims) {
    ir::ArrayDim out;
    out.lb = d.lb;
    out.ub = d.ub;
    out.lb_sym = d.lb_sym;
    out.ub_sym = d.ub_sym;
    dims.push_back(std::move(out));
  }
  return symtab.make_array_ty(s.mtype, std::move(dims), s.row_major, s.noncontiguous,
                              s.coarray);
}

}  // namespace

LinkResult link_units(const std::vector<UnitSummary>& units,
                      const std::vector<std::string>& texts, const LinkOptions& opts,
                      const std::string& name) {
  ARA_SPAN("link", "serve");
  LinkResult result;
  result.program = std::make_unique<ir::Program>();
  result.diags = DiagnosticEngine(&result.program->sources);
  ir::Program& program = *result.program;
  DiagnosticEngine& diags = result.diags;

  // Sources, in command-line order: FileId of unit u is u + 1.
  for (std::size_t u = 0; u < units.size(); ++u) {
    stat_units_linked.bump();
    program.sources.add(units[u].source_name, u < texts.size() ? texts[u] : std::string(),
                        units[u].language);
  }
  auto file_of = [](std::size_t u) { return static_cast<FileId>(u + 1); };

  // Per-unit symbol maps: unit symbol index -> linked StIdx. The replay
  // phases below mirror sema's declare_procedures / declare_globals /
  // analyze_proc creation order exactly (see the header comment).
  std::vector<std::vector<ir::StIdx>> map(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    map[u].assign(units[u].symbols.size(), ir::kInvalidSt);
  }

  // Per-unit link cost. The replay phases below each sweep every unit (the
  // creation order is load-bearing), so one scope per unit is impossible;
  // instead each phase's per-unit slice accumulates here and the totals are
  // recorded into serve.unit_link_ns at the end.
  const bool timing = obs::enabled();
  std::vector<std::uint64_t> unit_link_ns(timing ? units.size() : 0, 0);
  using LinkClock = std::chrono::steady_clock;
  auto tick = [timing] { return timing ? LinkClock::now() : LinkClock::time_point{}; };
  auto tock = [&](std::size_t u, LinkClock::time_point t0) {
    if (!timing) return;
    unit_link_ns[u] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(LinkClock::now() - t0)
            .count());
  };
  auto mapped = [&](std::uint32_t u, std::uint32_t sym) { return map[u][sym]; };

  std::map<std::string, ir::StIdx> procs;  // lower name -> linked ST

  // Phase A: every unit's defined procedures.
  for (std::size_t u = 0; u < units.size(); ++u) {
    const auto t0 = tick();
    for (std::uint32_t s = 0; s < units[u].symbols.size(); ++s) {
      const SymInfo& sym = units[u].symbols[s];
      if (sym.kind != SymInfo::Kind::Proc) continue;
      const std::string key = to_lower(sym.name);
      const SourceLoc loc{file_of(u), sym.line, sym.col};
      if (procs.count(key) != 0) {
        diags.error(loc, "redefinition of procedure '" + sym.name + "'");
        continue;
      }
      ir::St st;
      st.name = sym.name;
      st.sclass = ir::StClass::Proc;
      st.storage = ir::StStorage::Global;
      st.ty = program.symtab.make_scalar_ty(ir::Mtype::Void);
      st.loc = loc;
      st.file = file_of(u);
      const ir::StIdx idx = program.symtab.make_st(std::move(st));
      procs[key] = idx;
      map[u][s] = idx;
    }
    tock(u, t0);
  }

  // Phase B: globals unify by name program-wide; first declaration wins.
  std::map<std::string, ir::StIdx> globals;
  for (std::size_t u = 0; u < units.size(); ++u) {
    const auto t0 = tick();
    for (std::uint32_t s = 0; s < units[u].symbols.size(); ++s) {
      const SymInfo& sym = units[u].symbols[s];
      if (sym.kind != SymInfo::Kind::Global) continue;
      const std::string key = to_lower(sym.name);
      const SourceLoc loc{file_of(u), sym.line, sym.col};
      const auto it = globals.find(key);
      if (it != globals.end()) {
        const ir::Ty& prev = program.symtab.ty(program.symtab.st(it->second).ty);
        const std::size_t new_rank = sym.dims.size();
        if (prev.is_array() != (new_rank > 0) ||
            (prev.is_array() && prev.rank() != new_rank)) {
          diags.warning(loc, "global '" + sym.name + "' redeclared with a different shape");
        }
        map[u][s] = it->second;
        continue;
      }
      ir::St st;
      st.name = sym.name;
      st.sclass = ir::StClass::Var;
      st.storage = ir::StStorage::Global;
      st.ty = make_ty(program.symtab, sym);
      st.loc = loc;
      st.file = file_of(u);
      const ir::StIdx idx = program.symtab.make_st(std::move(st));
      globals[key] = idx;
      map[u][s] = idx;
    }
    tock(u, t0);
  }

  // Imports: a global referenced by this unit but declared by a sibling
  // binds to the sibling's Phase-B symbol — no new ST is created, so the
  // linked table replays the monolithic front end's creation order exactly
  // (the declaring unit's position wins, as in declare_globals).
  for (std::size_t u = 0; u < units.size(); ++u) {
    const auto t0 = tick();
    std::set<std::string> reported_imports;
    for (std::uint32_t s = 0; s < units[u].symbols.size(); ++s) {
      const SymInfo& sym = units[u].symbols[s];
      if (sym.kind != SymInfo::Kind::Import) continue;
      const std::string key = to_lower(sym.name);
      const auto it = globals.find(key);
      if (it != globals.end()) {
        map[u][s] = it->second;
        continue;
      }
      if (!reported_imports.insert(key).second) continue;
      const SourceLoc loc{file_of(u), sym.line, sym.col};
      if (opts.degraded) {
        // The declaration may live in a unit that failed to analyze; the
        // import's accesses are dropped, but the survivors still link.
        diags.warning(loc, "imported global '" + sym.name +
                               "' is not declared by any linked unit (its declaring "
                               "unit may have failed to analyze)");
      } else {
        diags.error(loc,
                    "imported global '" + sym.name + "' is not declared by any linked unit");
      }
    }
    tock(u, t0);
  }

  // External references resolve against the whole program's procedures.
  for (std::size_t u = 0; u < units.size(); ++u) {
    const auto t0 = tick();
    for (std::uint32_t s = 0; s < units[u].symbols.size(); ++s) {
      const SymInfo& sym = units[u].symbols[s];
      if (sym.kind != SymInfo::Kind::Extern) continue;
      const auto it = procs.find(to_lower(sym.name));
      if (it != procs.end()) map[u][s] = it->second;
    }
    std::set<std::string> reported;
    for (const ExternSummary& ext : units[u].externs) {
      if (procs.count(ext.name) == 0 && reported.insert(ext.name).second) {
        const SourceLoc loc{file_of(u), ext.line, 0};
        obs::prov_record(obs::CauseKind::UnresolvedCall,
                         {"", ext.name, units[u].source_name, ext.line}, -1,
                         opts.degraded
                             ? "defining unit failed to analyze; callee effects unknown"
                             : "no linked unit defines this procedure");
        if (opts.degraded) {
          // The definition may live in a unit that failed to analyze; the
          // call's effects are unknown, but the survivors still link.
          diags.warning(loc, "call to unknown procedure '" + ext.name +
                                 "' (its unit may have failed to analyze)");
        } else {
          diags.error(loc, "call to unknown procedure '" + ext.name + "'");
        }
      }
    }
    tock(u, t0);
  }

  // Phase C: each procedure's formals and locals, in unit creation order.
  for (std::size_t u = 0; u < units.size(); ++u) {
    const auto t0 = tick();
    for (std::uint32_t s = 0; s < units[u].symbols.size(); ++s) {
      const SymInfo& sym = units[u].symbols[s];
      if (sym.kind != SymInfo::Kind::Formal && sym.kind != SymInfo::Kind::Local) continue;
      ir::St st;
      st.name = sym.name;
      if (sym.kind == SymInfo::Kind::Formal) {
        st.sclass = ir::StClass::Formal;
        st.storage = ir::StStorage::Formal;
        st.formal_pos = sym.formal_pos;
      } else {
        st.sclass = ir::StClass::Var;
        st.storage = ir::StStorage::Local;
      }
      st.ty = make_ty(program.symtab, sym);
      const auto owner = procs.find(sym.owner);
      st.owner_proc = owner != procs.end() ? owner->second : ir::kInvalidSt;
      st.loc = SourceLoc{file_of(u), sym.line, sym.col};
      st.file = file_of(u);
      map[u][s] = program.symtab.make_st(std::move(st));
    }
    tock(u, t0);
  }

  if (diags.has_errors()) return result;

  ir::assign_layout(program, opts.layout);

  // Link call graph: nodes in unit/definition order (== the monolithic
  // pipeline's procedure order), edges resolved by name, plus the nodes'
  // local records and side effects, all remapped into the linked symbols.
  std::map<std::string, std::uint32_t> node_of;
  std::uint32_t next_node = 0;
  for (const UnitSummary& unit : units) {
    for (const ProcSummary& p : unit.procs) {
      node_of[to_lower(unit.symbols[p.sym].name)] = next_node++;
    }
  }
  std::vector<ipa::CGNode> nodes;
  std::vector<ipa::SideEffects> local_effects;
  std::vector<ipa::AccessRecord> records;
  for (std::size_t u = 0; u < units.size(); ++u) {
    const auto t0 = tick();
    const auto unit = static_cast<std::uint32_t>(u);
    for (const ProcSummary& p : units[u].procs) {
      ipa::CGNode& node = nodes.emplace_back();
      node.proc_st = mapped(unit, p.sym);
      node.file = file_of(u);
      for (const CallSummary& cs : p.callsites) {
        ipa::CallSite& site = node.callsites.emplace_back();
        // Outside degraded mode every extern resolved above, so the lookup
        // cannot fail; with dropped units the callee may be missing.
        const auto it = node_of.find(cs.callee);
        if (it != node_of.end()) {
          site.callee = it->second;
        } else {
          site.unlinked = cs.callee;
        }
        site.loc = SourceLoc{node.file, cs.line, 0};
        for (const ActualSummary& a : cs.actuals) {
          site.actuals.push_back(
              {a.is_array ? mapped(unit, a.array_sym) : ir::kInvalidSt, a.affine});
        }
      }
      for (const RecordSummary& r : p.records) {
        const ir::StIdx arr = mapped(unit, r.sym);
        if (arr == ir::kInvalidSt) continue;  // unresolved import (degraded mode)
        ipa::AccessRecord& rec = records.emplace_back();
        rec.array = arr;
        rec.mode = r.mode;
        rec.remote = r.remote;
        rec.image = r.image;
        rec.region = r.region;
        rec.refs = r.refs;
        rec.scope_proc = node.proc_st;
        rec.file = node.file;
        rec.line = r.line;
      }
      ipa::SideEffects& effects = local_effects.emplace_back();
      for (const EffectSummary& eff : p.effects) {
        const ir::StIdx st = mapped(unit, eff.sym);
        if (st == ir::kInvalidSt) continue;
        effects.effects[{st, eff.mode}].merge_all(eff.regions);
      }
    }
    tock(u, t0);
  }
  const ipa::CallGraph cg = ipa::CallGraph::from_nodes(std::move(nodes));

  ipa::AnalysisResult shell;
  {
    ARA_SPAN("link-propagate", "serve");
    ipa::InterprocResult propagated =
        ipa::propagate(program, cg, std::move(local_effects), std::move(records),
                       {opts.interprocedural});
    shell.records = std::move(propagated.records);
    shell.formal_binding = std::move(propagated.formal_binding);
  }
  stat_link_records.bump(static_cast<std::uint64_t>(
      std::count_if(shell.records.begin(), shell.records.end(),
                    [](const ipa::AccessRecord& rec) { return rec.interproc; })));

  {
    ARA_SPAN("link-rows", "serve");
    result.rows = ipa::build_rows(program, shell);
  }
  result.project = ipa::dgn_project(program, cg, name);

  // .cfg: one header, then each unit's pre-rendered sections in order.
  result.cfg_text = "CFG 1\n";
  for (const UnitSummary& unit : units) result.cfg_text += unit.cfg_text;

  for (const std::uint64_t ns : unit_link_ns) hist_unit_link.record(ns);

  result.ok = true;
  return result;
}

}  // namespace ara::serve
