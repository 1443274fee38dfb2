// Row-assembly tests: the end-to-end .rgn rows, checked against the paper's
// published values (Fig 9's aarr rows and the access-density formula), and
// build_rows checked field by field against a plain reference assembly on
// every committed workload and on generated programs.
#include "ipa/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "difftest/generator.hpp"
#include "driver/compiler.hpp"
#include "frontend/compile.hpp"
#include "support/string_utils.hpp"

namespace ara::ipa {
namespace {

namespace fs = std::filesystem;

// ---- Reference: the direct row assembly build_rows must reproduce ----
// Strings all the way: string group keys, one row per record in record
// order, then a stable sort whose comparator lower-cases the array names.

std::string mode_label(const AccessRecord& rec) {
  const std::string_view base = regions::to_string(rec.mode);
  if (rec.remote) return "R" + std::string(base);
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
  return 7;
}

template <typename GetField>
std::string join_dims(const regions::Region& r, GetField&& field) {
  std::ostringstream os;
  for (std::size_t i = 0; i < r.rank(); ++i) {
    if (i != 0) os << '|';
    os << field(r.dim(i));
  }
  return os.str();
}

std::vector<rgn::RegionRow> reference_rows(const ir::Program& program,
                                           const AnalysisResult& result) {
  const ir::SymbolTable& symtab = program.symtab;
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
      row.lb = "1";
      row.ub = "1";
      row.stride = "1";
    }
    row.element_size = ty.noncontiguous ? -ty.element_size() : ty.element_size();
    row.data_type = std::string(ir::mtype_source_name(ty.mtype));
    if (ty.is_array()) {
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
    row.mem_loc = to_hex(resolve_addr(rec.array, program, result.formal_binding));
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

struct Analyzed {
  ir::Program program;
  DiagnosticEngine diags{nullptr};
  AnalysisResult result;
};

std::unique_ptr<Analyzed> analyze(const std::string& text, Language lang,
                                  const AnalyzeOptions& opts = {}) {
  auto out = std::make_unique<Analyzed>();
  out->program.sources.add(lang == Language::C ? "matrix.c" : "t.f", text, lang);
  EXPECT_TRUE(fe::compile_program(out->program, out->diags)) << out->diags.render();
  out->result = ipa::analyze(out->program, opts);
  return out;
}

const char* kMatrixC = R"(
int aarr[20];
int barr[20];
void main(void) {
  int i;
  for (i = 0; i < 8; i++) { aarr[i] = i; }
  for (i = 0; i < 8; i++) { aarr[i + 1] = aarr[i]; }
  for (i = 0; i < 8; i++) { barr[i] = aarr[i]; }
  for (i = 2; i < 8; i += 2) { barr[i] = aarr[i]; }
}
)";

std::vector<const rgn::RegionRow*> rows_of(const AnalysisResult& r, const std::string& array,
                                           const std::string& mode) {
  std::vector<const rgn::RegionRow*> out;
  for (const rgn::RegionRow& row : r.rows) {
    if (iequals(row.array, array) && row.mode == mode) out.push_back(&row);
  }
  return out;
}

TEST(Rows, Fig9AarrDefRows) {
  auto a = analyze(kMatrixC, Language::C);
  const auto defs = rows_of(a->result, "aarr", "DEF");
  ASSERT_EQ(defs.size(), 2u);
  // Row 1: [0:7:1]; row 2: [1:8:1]; References = 2 on both (the group total).
  EXPECT_EQ(defs[0]->lb, "0");
  EXPECT_EQ(defs[0]->ub, "7");
  EXPECT_EQ(defs[1]->lb, "1");
  EXPECT_EQ(defs[1]->ub, "8");
  for (const auto* row : defs) {
    EXPECT_EQ(row->references, 2u);
    EXPECT_EQ(row->stride, "1");
    EXPECT_EQ(row->element_size, 4);
    EXPECT_EQ(row->data_type, "int");
    EXPECT_EQ(row->dim_size, "20");
    EXPECT_EQ(row->tot_size, 20);
    EXPECT_EQ(row->size_bytes, 80);
    EXPECT_EQ(row->acc_density, 2);  // floor(100*2/80)
    EXPECT_EQ(row->scope, "@");
    EXPECT_EQ(row->file, "matrix.o");
  }
}

TEST(Rows, Fig9AarrUseRows) {
  auto a = analyze(kMatrixC, Language::C);
  const auto uses = rows_of(a->result, "aarr", "USE");
  ASSERT_EQ(uses.size(), 3u);
  EXPECT_EQ(uses[0]->ub, "7");
  EXPECT_EQ(uses[1]->ub, "7");
  EXPECT_EQ(uses[2]->lb, "2");
  EXPECT_EQ(uses[2]->ub, "6");
  EXPECT_EQ(uses[2]->stride, "2");
  for (const auto* row : uses) {
    EXPECT_EQ(row->references, 3u);
    EXPECT_EQ(row->acc_density, 3);  // floor(100*3/80)
  }
}

TEST(Rows, SharedMemLocForSameArray) {
  auto a = analyze(kMatrixC, Language::C);
  const auto defs = rows_of(a->result, "aarr", "DEF");
  const auto uses = rows_of(a->result, "aarr", "USE");
  ASSERT_FALSE(defs.empty());
  ASSERT_FALSE(uses.empty());
  EXPECT_EQ(defs[0]->mem_loc, uses[0]->mem_loc);
  const auto barr = rows_of(a->result, "barr", "DEF");
  ASSERT_FALSE(barr.empty());
  EXPECT_NE(barr[0]->mem_loc, defs[0]->mem_loc);
}

TEST(Rows, DensityTruncatesLikeThePaper) {
  // XCR: 4 refs / 40 bytes -> 10; FORMAL 1 ref -> floor(2.5) = 2 (Table II).
  EXPECT_EQ(rgn::access_density_pct(4, 40), 10);
  EXPECT_EQ(rgn::access_density_pct(1, 40), 2);
  EXPECT_EQ(rgn::access_density_pct(9, 1), 900);   // the CLASS row
  EXPECT_EQ(rgn::access_density_pct(110, 10816000), 0);  // the U row
  EXPECT_EQ(rgn::access_density_pct(5, 0), 0);     // variable-length arrays
}

TEST(Rows, RowsAreSortedByScopeArrayAndMode) {
  auto a = analyze(kMatrixC, Language::C);
  for (std::size_t i = 1; i < a->result.rows.size(); ++i) {
    const auto& prev = a->result.rows[i - 1];
    const auto& cur = a->result.rows[i];
    EXPECT_LE(prev.scope, cur.scope);
    if (prev.scope != cur.scope) continue;
    EXPECT_LE(to_lower(prev.array), to_lower(cur.array));
    if (to_lower(prev.array) != to_lower(cur.array)) continue;
    EXPECT_LE(mode_rank(prev.mode), mode_rank(cur.mode)) << prev.mode << " before " << cur.mode;
    if (mode_rank(prev.mode) == mode_rank(cur.mode)) {
      EXPECT_LE(prev.line, cur.line) << i;
    }
  }
}

TEST(Rows, ScalarOptOutDropsScalarRows) {
  const char* text =
      "subroutine s(n)\n"
      "  integer :: n, v(10), i\n"
      "  do i = 1, n\n"
      "    v(i) = 0\n"
      "  end do\n"
      "end subroutine s\n";
  AnalyzeOptions opts;
  opts.include_scalars = false;
  auto a = analyze(text, Language::Fortran, opts);
  EXPECT_TRUE(rows_of(a->result, "n", "USE").empty());
  EXPECT_FALSE(rows_of(a->result, "v", "DEF").empty());
}

TEST(Rows, NonInterprocOptionSkipsIRows) {
  const char* text =
      "subroutine callee(v)\n"
      "  double precision :: v(5)\n"
      "  v(1) = 0.0\n"
      "end subroutine callee\n"
      "subroutine caller\n"
      "  double precision :: x(5)\n"
      "  call callee(x)\n"
      "end subroutine caller\n";
  AnalyzeOptions opts;
  opts.interprocedural = false;
  auto a = analyze(text, Language::Fortran, opts);
  for (const rgn::RegionRow& row : a->result.rows) {
    EXPECT_NE(row.mode, "IDEF");
    EXPECT_NE(row.mode, "IUSE");
  }
  // PASSED rows are local information and still appear.
  EXPECT_FALSE(rows_of(a->result, "x", "PASSED").empty());
}

TEST(Rows, VariableLengthArrayDisplaysZeroSizes) {
  const char* text =
      "subroutine s(a, n)\n"
      "  integer :: n, i\n"
      "  double precision :: a(n)\n"
      "  do i = 1, n\n"
      "    a(i) = 0.0\n"
      "  end do\n"
      "end subroutine s\n";
  auto a = analyze(text, Language::Fortran);
  const auto defs = rows_of(a->result, "a", "DEF");
  ASSERT_FALSE(defs.empty());
  EXPECT_EQ(defs[0]->tot_size, 0);
  EXPECT_EQ(defs[0]->size_bytes, 0);
  EXPECT_EQ(defs[0]->acc_density, 0);
}

TEST(Rows, RgnRoundTripPreservesRows) {
  auto a = analyze(kMatrixC, Language::C);
  const std::string text = rgn::write_rgn(a->result.rows);
  std::vector<rgn::RegionRow> parsed;
  std::string error;
  ASSERT_TRUE(rgn::parse_rgn(text, parsed, &error)) << error;
  EXPECT_EQ(parsed, a->result.rows);
}

TEST(Rows, EffectsOfLookupByName) {
  const char* text =
      "subroutine s\n"
      "  integer :: v(10), i\n"
      "  do i = 1, 10\n"
      "    v(i) = 0\n"
      "  end do\n"
      "end subroutine s\n";
  auto a = analyze(text, Language::Fortran);
  EXPECT_NE(a->result.effects_of("s", a->program), nullptr);
  EXPECT_EQ(a->result.effects_of("nosuch", a->program), nullptr);
}

/// build_rows must equal reference_rows field by field, on the records as
/// analyzed and on three fixed-seed shuffles of them (the shuffles move
/// records that tie on everything but record order).
void expect_rows_match_reference(const ir::Program& program, const AnalysisResult& result,
                                 const std::string& what) {
  AnalysisResult shuffled;
  shuffled.records = result.records;
  shuffled.formal_binding = result.formal_binding;
  difftest::Rng rng(0x5eed);
  for (int round = 0; round < 4; ++round) {
    if (round > 0) {
      for (std::size_t i = shuffled.records.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng.range(0, static_cast<std::int64_t>(i) - 1));
        std::swap(shuffled.records[i - 1], shuffled.records[j]);
      }
    }
    const std::vector<rgn::RegionRow> expected = reference_rows(program, shuffled);
    const std::vector<rgn::RegionRow> actual = build_rows(program, shuffled);
    ASSERT_EQ(actual.size(), expected.size()) << what << " round " << round;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i])
          << what << " round " << round << " row " << i << "\nbuilt:\n"
          << rgn::write_rgn({actual[i]}) << "reference:\n"
          << rgn::write_rgn({expected[i]});
    }
  }
}

void expect_program_matches_reference(driver::Compiler& cc, const std::string& what) {
  ASSERT_TRUE(cc.compile()) << what << "\n" << cc.diagnostics().render();
  expect_rows_match_reference(cc.program(), cc.analyze(), what);
}

TEST(Rows, BuildRowsMatchesTheReferenceOnEveryWorkload) {
  // caf_halo has the RUSE / RDEF rows.
  for (const char* name : {"lu", "heat", "fig1_add.f", "fig10_matrix.c", "caf_halo.f"}) {
    const fs::path path = fs::path(ARA_WORKLOADS_DIR) / name;
    std::vector<fs::path> files;
    if (fs::is_directory(path)) {
      for (const auto& e : fs::directory_iterator(path)) files.push_back(e.path());
    } else {
      files.push_back(path);
    }
    std::sort(files.begin(), files.end());
    driver::Compiler cc;
    for (const fs::path& f : files) ASSERT_TRUE(cc.add_file(f)) << f;
    expect_program_matches_reference(cc, name);
  }
}

TEST(Rows, BuildRowsMatchesTheReferenceOnGeneratedPrograms) {
  // 25 seeds x {C, Fortran} x {default, stress-FM grid} = 100 programs.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    for (const Language lang : {Language::C, Language::Fortran}) {
      for (const bool stress_fm : {false, true}) {
        difftest::GenOptions gopts;
        gopts.seed = seed;
        gopts.lang = lang;
        if (stress_fm) {  // arafuzz --stress-fm
          gopts.max_loop_depth = 5;
          gopts.max_loop_vars = 6;
          gopts.coupled_pct = 60;
          gopts.stmts = 6;
        }
        const difftest::GeneratedProgram prog = difftest::generate(gopts);
        driver::Compiler cc;
        cc.add_source(prog.filename, prog.source, prog.lang);
        expect_program_matches_reference(
            cc, prog.filename + (stress_fm ? " (stress-FM)" : "") + " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(Rows, CaseVariantsAcrossScopesGroupByLowercaseName) {
  // C folds identifier case in sema, so `A` and `a` can only be distinct
  // symbols in different scopes; each scope's rows still sort and total by
  // the lowercase name.
  const char* text = R"(
double B[8];
void f(void) {
  double A[4];
  int i;
  for (i = 0; i < 4; i++) { A[i] = B[i]; }
}
void g(void) {
  double a[6];
  double b2[6];
  int i;
  for (i = 0; i < 6; i++) { a[i] = b2[i]; b2[i] = a[i]; }
  for (i = 0; i < 6; i++) { a[i] = B[i]; }
}
)";
  driver::Compiler cc;
  cc.add_source("cases.c", text, Language::C);
  expect_program_matches_reference(cc, "cases.c");
  std::set<std::pair<std::string, std::string>> scoped;
  for (const rgn::RegionRow& row : cc.analyze().rows) scoped.emplace(row.scope, row.array);
  EXPECT_EQ(scoped.count({"f", "A"}), 1u);
  EXPECT_EQ(scoped.count({"g", "a"}), 1u);
}

}  // namespace
}  // namespace ara::ipa
