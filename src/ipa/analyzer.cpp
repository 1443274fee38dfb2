#include "ipa/analyzer.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <numeric>
#include <tuple>
#include <unordered_map>

#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "support/string_utils.hpp"

namespace ara::ipa {

ARA_STATISTIC(stat_procs_analyzed, "ipa.procs_analyzed", "Procedures through local ARA");
ARA_STATISTIC(stat_rows_built, "ipa.rows_built", "Region table rows assembled");

using regions::AccessMode;

namespace {

/// A row's Mode label and its place in the row order: DEF, USE, RDEF, RUSE,
/// IDEF, IUSE, FORMAL, then every other label tied at 7.
struct ModeLabel {
  std::string_view text;
  std::uint32_t rank;
};

/// Indexed by label_of(): the AccessMode bare, with an I prefix
/// (interprocedural) or with an R prefix (coarray, §VI).
constexpr ModeLabel kModeLabels[] = {
    {"USE", 1},  {"DEF", 0},  {"FORMAL", 6},  {"PASSED", 7},   //
    {"IUSE", 5}, {"IDEF", 4}, {"IFORMAL", 7}, {"IPASSED", 7},  //
    {"RUSE", 3}, {"RDEF", 2}, {"RFORMAL", 7}, {"RPASSED", 7},
};
constexpr std::size_t kModeCount = 4;
static_assert(static_cast<int>(AccessMode::Use) == 0 && static_cast<int>(AccessMode::Def) == 1 &&
                  static_cast<int>(AccessMode::Formal) == 2 &&
                  static_cast<int>(AccessMode::Passed) == 3,
              "kModeLabels follows AccessMode's order");

/// R wins over I: a remote record is RUSE/RDEF even when interprocedural.
std::size_t label_of(const AccessRecord& rec) {
  const std::size_t prefix = rec.remote ? 2 : rec.interproc ? 1 : 0;
  return prefix * kModeCount + static_cast<std::size_t>(rec.mode);
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// '|'-joined per-dimension field, matching the paper's Dim_size rendering.
template <typename AppendField>
std::string join_dims(const regions::Region& r, AppendField&& append) {
  std::string out;
  for (std::size_t i = 0; i < r.rank(); ++i) {
    if (i != 0) out += '|';
    append(out, r.dim(i));
  }
  return out;
}

/// Dense ids for distinct names, and each id's rank in bytewise name order.
template <typename Name>
class Interner {
 public:
  std::uint32_t intern(Name name) {
    const auto [it, fresh] =
        ids_.try_emplace(std::move(name), static_cast<std::uint32_t>(names_.size()));
    if (fresh) names_.push_back(&it->first);
    return it->second;
  }
  [[nodiscard]] const Name& name(std::uint32_t id) const { return *names_[id]; }
  [[nodiscard]] std::vector<std::uint32_t> ranks() const {
    std::vector<std::uint32_t> by_name(names_.size());
    std::iota(by_name.begin(), by_name.end(), 0U);
    std::sort(by_name.begin(), by_name.end(),
              [&](std::uint32_t a, std::uint32_t b) { return *names_[a] < *names_[b]; });
    std::vector<std::uint32_t> rank(names_.size());
    for (std::uint32_t r = 0; r < by_name.size(); ++r) rank[by_name[r]] = r;
    return rank;
  }

 private:
  std::unordered_map<Name, std::uint32_t> ids_;
  std::vector<const Name*> names_;  // by id; map nodes never move
};

/// The columns fixed by the array symbol alone, whatever the access.
struct ArrayColumns {
  std::uint32_t name = 0;  // interned lowercase name
  bool global = false;     // shown under scope "@"
  std::uint32_t dims = 0;
  std::int64_t element_size = 0;
  std::string_view data_type;
  std::string dim_size;
  std::int64_t tot_size = 0;
  std::int64_t size_bytes = 0;
  std::string mem_loc;
};

ArrayColumns array_columns(ir::StIdx array, const ir::Program& program,
                           const std::map<ir::StIdx, ir::StIdx>& formal_binding,
                           Interner<std::string>& names) {
  const ir::St& st = program.symtab.st(array);
  const ir::Ty& ty = program.symtab.ty(st.ty);
  ArrayColumns col;
  col.name = names.intern(to_lower(st.name));
  col.global = st.storage == ir::StStorage::Global;
  col.dims = static_cast<std::uint32_t>(ty.is_array() ? ty.rank() : 1);
  col.element_size = ty.noncontiguous ? -ty.element_size() : ty.element_size();
  col.data_type = ir::mtype_source_name(ty.mtype);
  if (ty.is_array()) {
    // Dim_size is rendered in WHIRL row-major order (Fig 14: "64|65|65|5"
    // for a Fortran u(5,65,65,64)).
    const std::size_t n = ty.rank();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t src = ty.row_major ? i : n - 1 - i;
      if (i != 0) col.dim_size += '|';
      append_int(col.dim_size, ty.dims[src].extent().value_or(0));
    }
  } else {
    col.dim_size = "1";
  }
  col.tot_size = ty.total_elements().value_or(0);
  col.size_bytes = ty.size_bytes().value_or(0);
  col.mem_loc = to_hex(resolve_addr(array, program, formal_binding));
  return col;
}

/// One record's row-order key. `hi` packs the scope and array ids (ranks
/// after ranking), `lo` the mode rank and line; `index` is the record's
/// position, which reproduces a stable sort's order among equal keys.
struct SortKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::uint32_t index = 0;
  std::uint32_t group = 0;  // slot of the row's References total
};

std::uint64_t pack(std::uint32_t high, std::uint32_t low) {
  return std::uint64_t{high} << 32 | low;
}

/// A References group: (scope, array, mode label, accessing file).
struct GroupKey {
  std::uint32_t scope = 0;
  std::uint32_t array = 0;
  FileId file = kInvalidFileId;
  std::uint32_t label = 0;
  friend bool operator==(const GroupKey&, const GroupKey&) = default;
};

struct GroupKeyHash {
  std::size_t operator()(const GroupKey& k) const {
    const std::uint64_t a = pack(k.scope, k.array) * 0x9e3779b97f4a7c15ULL;
    const std::uint64_t b = pack(k.file, k.label) * 0xc2b2ae3d27d4eb4fULL;
    return static_cast<std::size_t>(a ^ (b >> 29) ^ (b << 35));
  }
};

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
  const std::vector<AccessRecord>& records = result.records;
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();

  // Memoized per symbol on first use: a scope's interned name, an array's
  // interned lowercase name and fixed columns; object names per file.
  Interner<std::string_view> scopes;
  Interner<std::string> array_names;
  const std::uint32_t global_scope = scopes.intern("@");
  std::vector<std::uint32_t> scope_of_proc(symtab.st_count() + 1, kUnset);
  std::vector<std::uint32_t> slot_of_array(symtab.st_count() + 1, kUnset);
  std::vector<ArrayColumns> arrays;
  std::vector<std::string> object_names(1);  // kInvalidFileId: no file
  for (FileId f = 1; f <= program.sources.file_count(); ++f) {
    object_names.push_back(program.sources.object_name(f));
  }
  auto columns_of = [&](ir::StIdx array) -> const ArrayColumns& {
    std::uint32_t& slot = slot_of_array.at(array);
    if (slot == kUnset) {
      arrays.push_back(array_columns(array, program, result.formal_binding, array_names));
      slot = static_cast<std::uint32_t>(arrays.size() - 1);
    }
    return arrays[slot];
  };
  // "@" for a global array or a record without a scope, else the scope
  // procedure's name (two procedures of one name share the id).
  auto scope_of = [&](const AccessRecord& rec, const ArrayColumns& col) {
    if (col.global || rec.scope_proc == ir::kInvalidSt) return global_scope;
    std::uint32_t& id = scope_of_proc.at(rec.scope_proc);
    if (id == kUnset) id = scopes.intern(symtab.st(rec.scope_proc).name);
    return id;
  };

  // One pass: each record's key, and the total references per (scope,
  // array, mode, file) group — the paper repeats the group total in each
  // row's References column, counted per accessing translation unit
  // (Fig 14: u has 110 USE refs in rhs.o).
  std::unordered_map<GroupKey, std::uint32_t, GroupKeyHash> group_of;
  std::vector<std::uint64_t> group_refs;
  std::vector<SortKey> keys;
  keys.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const AccessRecord& rec = records[i];
    const ArrayColumns& col = columns_of(rec.array);
    const std::uint32_t scope = scope_of(rec, col);
    const std::size_t label = label_of(rec);
    const auto [it, fresh] =
        group_of.try_emplace(GroupKey{scope, col.name, rec.file, static_cast<std::uint32_t>(label)},
                             static_cast<std::uint32_t>(group_refs.size()));
    if (fresh) group_refs.push_back(0);
    group_refs[it->second] += rec.refs;
    keys.push_back({pack(scope, col.name), pack(kModeLabels[label].rank, rec.line),
                    static_cast<std::uint32_t>(i), it->second});
  }

  // Rows go by scope name, then lowercase array name (both bytewise), mode
  // rank, line and record order.
  const std::vector<std::uint32_t> scope_rank = scopes.ranks();
  const std::vector<std::uint32_t> array_rank = array_names.ranks();
  for (SortKey& key : keys) {
    key.hi = pack(scope_rank[key.hi >> 32], array_rank[key.hi & 0xffffffffU]);
  }
  std::sort(keys.begin(), keys.end(), [](const SortKey& a, const SortKey& b) {
    return std::tie(a.hi, a.lo, a.index) < std::tie(b.hi, b.lo, b.index);
  });

  std::vector<rgn::RegionRow> rows;
  rows.reserve(keys.size());
  stat_rows_built.bump(records.size());
  for (const SortKey& key : keys) {
    const AccessRecord& rec = records[key.index];
    const ArrayColumns& col = arrays[slot_of_array[rec.array]];
    rgn::RegionRow& row = rows.emplace_back();
    row.scope = scopes.name(scope_of(rec, col));
    row.array = symtab.st(rec.array).name;
    row.file = object_names.at(rec.file);
    row.mode = kModeLabels[label_of(rec)].text;
    row.references = group_refs[key.group];
    row.dims = col.dims;
    if (rec.region.rank() > 0) {
      row.lb = join_dims(rec.region,
                         [](std::string& out, const regions::DimAccess& d) { out += d.lb.str(); });
      row.ub = join_dims(rec.region,
                         [](std::string& out, const regions::DimAccess& d) { out += d.ub.str(); });
      row.stride = join_dims(rec.region, [](std::string& out, const regions::DimAccess& d) {
        append_int(out, d.stride);
      });
    } else {
      // Scalars display as the single cell 1:1:1 (cf. the CLASS row, Fig 12).
      row.lb = "1";
      row.ub = "1";
      row.stride = "1";
    }
    row.element_size = col.element_size;
    row.data_type = col.data_type;
    row.dim_size = col.dim_size;
    row.tot_size = col.tot_size;
    row.size_bytes = col.size_bytes;
    row.mem_loc = col.mem_loc;
    row.acc_density = rgn::access_density_pct(row.references, row.size_bytes);
    row.image = rec.image;
    row.line = rec.line;
  }
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
