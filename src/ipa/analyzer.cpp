#include "ipa/analyzer.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "support/string_utils.hpp"

namespace ara::ipa {

ARA_STATISTIC(stat_procs_analyzed, "ipa.procs_analyzed", "Procedures through local ARA");
ARA_STATISTIC(stat_rows_built, "ipa.rows_built", "Region table rows assembled");

using regions::AccessMode;

namespace {

std::string mode_label(const AccessRecord& rec) {
  const std::string_view base = regions::to_string(rec.mode);
  if (rec.remote) return "R" + std::string(base);  // coarray RUSE / RDEF (§VI)
  return rec.interproc ? "I" + std::string(base) : std::string(base);
}

int mode_rank(const std::string& mode) {
  if (mode == "DEF") return 0;
  if (mode == "USE") return 1;
  if (mode == "RDEF") return 2;
  if (mode == "RUSE") return 3;
  if (mode == "IDEF") return 4;
  if (mode == "IUSE") return 5;
  if (mode == "FORMAL") return 6;
  return 7;  // PASSED
}

/// '|'-joined per-dimension field, matching the paper's Dim_size rendering.
template <typename GetField>
std::string join_dims(const regions::Region& r, GetField&& field) {
  std::ostringstream os;
  for (std::size_t i = 0; i < r.rank(); ++i) {
    if (i != 0) os << '|';
    os << field(r.dim(i));
  }
  return os.str();
}

}  // namespace

const SideEffects* AnalysisResult::effects_of(std::string_view proc,
                                              const ir::Program& program) const {
  const auto idx = callgraph.find(proc, program);
  if (!idx || *idx >= side_effects.size()) return nullptr;
  return &side_effects[*idx];
}

std::vector<rgn::RegionRow> build_rows(const ir::Program& program,
                                       const AnalysisResult& result) {
  const ir::SymbolTable& symtab = program.symtab;

  // First pass: total references per (scope, array, mode, file) group — the
  // paper repeats the group total in each row's References column, counted
  // per accessing translation unit (Fig 14: u has 110 USE refs in rhs.o).
  using GroupKey = std::tuple<std::string, std::string, std::string, FileId>;
  std::map<GroupKey, std::uint64_t> group_refs;
  auto scope_of = [&](const AccessRecord& rec) -> std::string {
    const ir::St& st = symtab.st(rec.array);
    if (st.storage == ir::StStorage::Global) return "@";
    return rec.scope_proc != ir::kInvalidSt ? symtab.st(rec.scope_proc).name : "@";
  };
  auto key_of = [&](const AccessRecord& rec) -> GroupKey {
    return {scope_of(rec), to_lower(symtab.st(rec.array).name), mode_label(rec), rec.file};
  };
  for (const AccessRecord& rec : result.records) {
    group_refs[key_of(rec)] += rec.refs;
  }

  std::vector<rgn::RegionRow> rows;
  rows.reserve(result.records.size());
  stat_rows_built.bump(result.records.size());
  for (const AccessRecord& rec : result.records) {
    const ir::St& st = symtab.st(rec.array);
    const ir::Ty& ty = symtab.ty(st.ty);
    rgn::RegionRow row;
    row.scope = scope_of(rec);
    row.array = st.name;
    row.file = rec.file != kInvalidFileId ? program.sources.object_name(rec.file) : "";
    row.mode = mode_label(rec);
    row.references = group_refs[key_of(rec)];
    row.dims = static_cast<std::uint32_t>(ty.is_array() ? ty.rank() : 1);
    if (rec.region.rank() > 0) {
      row.lb = join_dims(rec.region, [](const regions::DimAccess& d) { return d.lb.str(); });
      row.ub = join_dims(rec.region, [](const regions::DimAccess& d) { return d.ub.str(); });
      row.stride =
          join_dims(rec.region, [](const regions::DimAccess& d) { return std::to_string(d.stride); });
    } else {
      // Scalars display as the single cell 1:1:1 (cf. the CLASS row, Fig 12).
      row.lb = "1";
      row.ub = "1";
      row.stride = "1";
    }
    row.element_size = ty.noncontiguous ? -ty.element_size() : ty.element_size();
    row.data_type = std::string(ir::mtype_source_name(ty.mtype));
    if (ty.is_array()) {
      // Dim_size is rendered in WHIRL row-major order (Fig 14: "64|65|65|5"
      // for a Fortran u(5,65,65,64)).
      std::ostringstream os;
      const std::size_t n = ty.rank();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t src = ty.row_major ? i : n - 1 - i;
        if (i != 0) os << '|';
        os << ty.dims[src].extent().value_or(0);
      }
      row.dim_size = os.str();
    } else {
      row.dim_size = "1";
    }
    row.tot_size = ty.total_elements().value_or(0);
    row.size_bytes = ty.size_bytes().value_or(0);
    const std::uint64_t addr = resolve_addr(rec.array, program, result.formal_binding);
    row.mem_loc = to_hex(addr);
    row.acc_density = rgn::access_density_pct(row.references, row.size_bytes);
    row.image = rec.image;
    row.line = rec.line;
    rows.push_back(std::move(row));
  }

  std::stable_sort(rows.begin(), rows.end(), [](const rgn::RegionRow& a, const rgn::RegionRow& b) {
    if (a.scope != b.scope) return a.scope < b.scope;
    if (!iequals(a.array, b.array)) return to_lower(a.array) < to_lower(b.array);
    const int ra = mode_rank(a.mode);
    const int rb = mode_rank(b.mode);
    if (ra != rb) return ra < rb;
    return a.line < b.line;
  });
  return rows;
}

rgn::DgnProject dgn_project(const ir::Program& program, const CallGraph& cg,
                            const std::string& name) {
  rgn::DgnProject project;
  project.name = name;
  for (FileId f = 1; f <= program.sources.file_count(); ++f) {
    project.files.push_back(program.sources.name(f));
    project.languages.emplace_back(to_string(program.sources.language(f)));
  }
  for (const CGNode& node : cg.nodes()) {
    rgn::DgnProc p;
    p.name = program.symtab.st(node.proc_st).name;
    p.file = program.sources.name(node.file);
    p.line = program.symtab.st(node.proc_st).loc.line;
    p.is_entry = node.is_root;
    project.procedures.push_back(std::move(p));
  }
  for (const CGNode& node : cg.nodes()) {
    for (const CallSite& cs : node.callsites) {
      rgn::DgnEdge e;
      e.caller = program.symtab.st(node.proc_st).name;
      // A callee that is not linked (a degraded link) still shows up under
      // its call-site name, so the browser can display what is missing.
      e.callee = cs.callee != kNoNode ? program.symtab.st(cg.node(cs.callee).proc_st).name
                                      : cs.unlinked;
      e.line = cs.loc.line;
      project.edges.push_back(std::move(e));
    }
  }
  return project;
}

AnalysisResult analyze(const ir::Program& program, const AnalyzeOptions& opts) {
  AnalysisResult result;
  {
    ARA_SPAN("callgraph", "ipa");
    result.callgraph = CallGraph::build(program);
  }

  LocalAnalyzer local(program);
  std::vector<SideEffects> local_effects;
  std::vector<AccessRecord> records;
  local_effects.reserve(result.callgraph.size());
  {
    ARA_SPAN("local-ARA", "ipa");
    for (std::uint32_t i = 0; i < result.callgraph.size(); ++i) {
      const CGNode& node = result.callgraph.node(i);
      obs::Span proc_span(program.symtab.st(node.proc_st).name, "ipa");
      stat_procs_analyzed.bump();
      LocalSummary ls = local.analyze(node);
      records.insert(records.end(), std::make_move_iterator(ls.records.begin()),
                     std::make_move_iterator(ls.records.end()));
      local_effects.push_back(std::move(ls.side_effects));
    }
  }

  {
    ARA_SPAN("IPA-propagate", "ipa");
    InterprocResult propagated = propagate(program, result.callgraph, std::move(local_effects),
                                           std::move(records), opts);
    result.records = std::move(propagated.records);
    result.side_effects = std::move(propagated.side_effects);
    result.formal_binding = std::move(propagated.formal_binding);
  }

  {
    ARA_SPAN("build-rows", "ipa");
    result.rows = build_rows(program, result);
  }
  return result;
}

}  // namespace ara::ipa
