#include "rgn/region_row.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "difftest/generator.hpp"
#include "driver/compiler.hpp"

namespace ara::rgn {
namespace {

namespace fs = std::filesystem;

// ---- Reference: the row-of-strings CSV writer write_rgn must reproduce ----
// Every field becomes a std::string, integers through std::to_string, and a
// field is quoted (quotes doubled) iff it holds ',', '"', '\n' or '\r'.

void reference_field(std::string& out, const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) {
    out += field;
    return;
  }
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

void reference_row(std::string& out, const std::vector<std::string>& fields) {
  if (fields.size() == 1 && fields[0].empty()) {
    out += "\"\"\n";
    return;
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out += ',';
    reference_field(out, fields[i]);
  }
  out += '\n';
}

std::string reference_rgn(const std::vector<RegionRow>& rows) {
  std::string out;
  reference_row(out, {"Scope", "Array", "File", "Mode", "References", "Dims", "LB", "UB",
                      "Stride", "Element_size", "Data_type", "Dim_size", "Tot_size",
                      "Size_bytes", "Mem_Loc", "Acc_density", "Image", "Line", "Version"});
  for (const RegionRow& r : rows) {
    reference_row(out, {r.scope, r.array, r.file, r.mode, std::to_string(r.references),
                        std::to_string(r.dims), r.lb, r.ub, r.stride,
                        std::to_string(r.element_size), r.data_type, r.dim_size,
                        std::to_string(r.tot_size), std::to_string(r.size_bytes), r.mem_loc,
                        std::to_string(r.acc_density), r.image, std::to_string(r.line), "2"});
  }
  return out;
}

std::vector<RegionRow> compiled_rows(driver::Compiler& cc, const std::string& what) {
  EXPECT_TRUE(cc.compile()) << what << "\n" << cc.diagnostics().render();
  return cc.analyze().rows;
}

RegionRow sample_row() {
  RegionRow r;
  r.scope = "verify";
  r.array = "xcr";
  r.file = "verify.o";
  r.mode = "USE";
  r.references = 4;
  r.dims = 1;
  r.lb = "1";
  r.ub = "5";
  r.stride = "1";
  r.element_size = 8;
  r.data_type = "double";
  r.dim_size = "5";
  r.tot_size = 5;
  r.size_bytes = 40;
  r.mem_loc = "b79edfa0";
  r.acc_density = 10;
  r.line = 38;
  return r;
}

TEST(RegionRow, WriteParsesBack) {
  std::vector<RegionRow> rows{sample_row()};
  rows.push_back(sample_row());
  rows[1].mode = "FORMAL";
  rows[1].references = 1;
  rows[1].acc_density = 2;
  const std::string text = write_rgn(rows);
  std::vector<RegionRow> parsed;
  std::string error;
  ASSERT_TRUE(parse_rgn(text, parsed, &error)) << error;
  EXPECT_EQ(parsed, rows);
}

TEST(RegionRow, HeaderLineIsFirst) {
  const std::string text = write_rgn({sample_row()});
  EXPECT_EQ(text.rfind("Scope,Array,File,Mode,References", 0), 0u);
}

TEST(RegionRow, FieldsWithCommasSurvive) {
  RegionRow r = sample_row();
  r.lb = "1|1";
  r.ub = "n - 1|m, n";  // pathological but must round-trip
  std::vector<RegionRow> parsed;
  ASSERT_TRUE(parse_rgn(write_rgn({r}), parsed, nullptr));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].ub, "n - 1|m, n");
}

TEST(RegionRow, NegativeElementSizeRoundTrips) {
  // Non-contiguous F90 arrays carry a negative element size.
  RegionRow r = sample_row();
  r.element_size = -8;
  std::vector<RegionRow> parsed;
  ASSERT_TRUE(parse_rgn(write_rgn({r}), parsed, nullptr));
  EXPECT_EQ(parsed[0].element_size, -8);
}

TEST(RegionRow, ParseRejectsEmpty) {
  std::vector<RegionRow> out;
  std::string error;
  EXPECT_FALSE(parse_rgn("", out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(RegionRow, ParseRejectsBadHeader) {
  std::vector<RegionRow> out;
  EXPECT_FALSE(parse_rgn("not,a,header\n", out, nullptr));
}

TEST(RegionRow, ParseRejectsWrongColumnCount) {
  std::string text = write_rgn({sample_row()});
  text += "a,b,c\n";
  std::vector<RegionRow> out;
  std::string error;
  EXPECT_FALSE(parse_rgn(text, out, &error));
  EXPECT_NE(error.find("column"), std::string::npos);
}

TEST(RegionRow, ParseRejectsNonNumericReferences) {
  std::string text = write_rgn({sample_row()});
  // Corrupt the References field of the data row.
  const std::size_t pos = text.find("USE,4");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "USE,x");
  std::vector<RegionRow> out;
  EXPECT_FALSE(parse_rgn(text, out, nullptr));
}

TEST(RgnWriter, MatchesTheReferenceOnEveryWorkload) {
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
    const std::vector<RegionRow> rows = compiled_rows(cc, name);
    ASSERT_FALSE(rows.empty()) << name;
    EXPECT_EQ(write_rgn(rows), reference_rgn(rows)) << name;
  }
}

TEST(RgnWriter, MatchesTheReferenceOnGeneratedPrograms) {
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
        const std::string what = prog.filename + (stress_fm ? " (stress-FM)" : "") + " seed " +
                                 std::to_string(seed);
        driver::Compiler cc;
        cc.add_source(prog.filename, prog.source, prog.lang);
        const std::vector<RegionRow> rows = compiled_rows(cc, what);
        EXPECT_EQ(write_rgn(rows), reference_rgn(rows)) << what;
      }
    }
  }
}

TEST(RgnWriter, MatchesTheReferenceOnFieldsThatNeedQuoting) {
  const std::vector<std::string> values = {"",      ",",          "\"",        "\n",
                                           "\r",    "a,b",        "say \"hi\"", "two\nlines",
                                           "cr\rlf\n", "\"\"",       ",,",         "plain",
                                           "n - 1|m, n", "\xc3\xa9t\xc3\xa9"};
  std::vector<RegionRow> rows;
  for (std::size_t i = 0; i < values.size(); ++i) {
    RegionRow r = sample_row();
    r.scope = values[i];
    r.array = values[(i + 1) % values.size()];
    r.lb = values[(i + 2) % values.size()];
    r.image = values[(i + 3) % values.size()];
    r.references = i * 1000003;
    r.element_size = -static_cast<std::int64_t>(i);
    r.tot_size = std::numeric_limits<std::int64_t>::min() + static_cast<std::int64_t>(i);
    r.size_bytes = std::numeric_limits<std::int64_t>::max() - static_cast<std::int64_t>(i);
    r.acc_density = 0;
    r.line = std::numeric_limits<std::uint32_t>::max() - static_cast<std::uint32_t>(i);
    rows.push_back(r);
    EXPECT_EQ(write_rgn({r}), reference_rgn({r})) << "value " << i;
  }
  RegionRow empty;
  rows.push_back(empty);
  EXPECT_EQ(write_rgn({empty}), reference_rgn({empty}));
  EXPECT_EQ(write_rgn(rows), reference_rgn(rows));
  EXPECT_EQ(write_rgn({}), reference_rgn({}));
  std::vector<RegionRow> parsed;
  std::string error;
  ASSERT_TRUE(parse_rgn(write_rgn(rows), parsed, &error)) << error;
  EXPECT_EQ(parsed, rows);
}

TEST(AccessDensity, ExactAndPercent) {
  EXPECT_DOUBLE_EQ(access_density_exact(4, 40), 0.1);
  EXPECT_DOUBLE_EQ(access_density_exact(0, 40), 0.0);
  EXPECT_DOUBLE_EQ(access_density_exact(4, 0), 0.0);
  EXPECT_EQ(access_density_pct(3, 80), 3);   // floor(3.75)
  EXPECT_EQ(access_density_pct(2, 80), 2);   // floor(2.5)
  EXPECT_EQ(access_density_pct(0, 80), 0);
  EXPECT_EQ(access_density_pct(80, 80), 100);
}

}  // namespace
}  // namespace ara::rgn
