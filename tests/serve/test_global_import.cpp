// Cross-unit global-declaration import (scoped v1, C): a unit referencing a
// file-scope array declared in a sibling unit must analyze under separate
// compilation exactly as it does in the whole-program pipeline, and every
// reuse of its summary checks the imported shape — changing the
// *declaration* re-analyzes the importing unit, while unrelated edits to
// the declaring unit leave it resident or cached.
#include "serve/globals.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "rgn/dgn.hpp"
#include "rgn/region_row.hpp"
#include "serve/project.hpp"

namespace ara::serve {
namespace {

/// Declares the shared grid and fills it (the heat_kernels.c shape);
/// another `name` leaves use.c's grid undeclared.
std::string decl_unit(const std::string& dim = "130", const std::string& name = "grid") {
  std::string text;
  text += "double " + name + "[" + dim + "][" + dim + "];\n";
  text += "void fill(void) {\n  int i, j;\n";
  text += "  for (i = 0; i < 128; i++) {\n    for (j = 0; j < 128; j++) {\n";
  text += "      " + name + "[i][j] = i * j;\n    }\n  }\n}\n";
  return text;
}

/// References grid WITHOUT declaring it: only the cross-unit import (or the
/// whole-program globals map) can resolve it.
std::string use_unit(bool edited = false) {
  std::string text;
  text += "double total[130];\n";
  text += "void reduce(void) {\n  int i, j;\n";
  text += "  for (i = 0; i < 128; i++) {\n    for (j = 0; j < 128; j++) {\n";
  text += "      total[i] = total[i] + grid[i][j];\n    }\n  }\n}\n";
  if (edited) text += "/* edited */\n";
  return text;
}

std::vector<SourceBuffer> units(const std::string& dim = "130") {
  return {{"decl.c", decl_unit(dim), Language::C},
          {"use.c", use_unit(), Language::C}};
}

TEST(GlobalImport, ServeMatchesMonolithicOnCrossUnitGlobals) {
  driver::Compiler cc;
  cc.add_source("decl.c", decl_unit(), Language::C);
  cc.add_source("use.c", use_unit(), Language::C);
  ASSERT_TRUE(cc.compile()) << cc.diagnostics().render();
  const ipa::AnalysisResult mono = cc.analyze();

  BatchOptions opts;
  opts.jobs = 2;
  const BatchResult batch = run_batch(units(), opts, "globals");
  ASSERT_TRUE(batch.ok) << "serve must resolve grid via the global import";
  EXPECT_EQ(rgn::write_rgn(batch.link.rows), rgn::write_rgn(mono.rows));
  EXPECT_EQ(rgn::write_dgn(batch.link.project),
            rgn::write_dgn(ipa::dgn_project(cc.program(), mono.callgraph, "globals")));
}

TEST(GlobalImport, IndexIsEmptyWithoutASiblingToImportFrom) {
  // Single-unit batches have nothing to import; the declaring unit alone
  // still compiles (its own declaration is in scope).
  const std::vector<SourceBuffer> solo = {{"decl.c", decl_unit(), Language::C}};
  EXPECT_TRUE(build_global_index(solo).empty());

  const fe::GlobalImportTable index = build_global_index(units());
  EXPECT_NE(index.find("grid"), index.end());
}

TEST(GlobalImport, ChangedDeclarationInvalidatesTheImportingUnit) {
  ProjectState state("globals-inc");
  const BatchOptions opts;

  auto cold = state.analyze(units(), opts);
  ASSERT_TRUE(cold->ok);
  EXPECT_EQ(cold->cache_misses, 2u);

  // Unchanged rerun: both units replay resident — importing a sibling's
  // global does not poison the warm path.
  auto warm = state.analyze(units(), opts);
  ASSERT_TRUE(warm->ok);
  EXPECT_EQ(warm->cache_misses, 0u);
  EXPECT_EQ(warm->resident_hits, 2u);
  EXPECT_EQ(rgn::write_rgn(warm->rows), rgn::write_rgn(cold->rows));

  // Growing the shared array changes use.c's analysis (dims come from the
  // declared extent) even though use.c's text is untouched: its resident
  // summary still matches its key, but imported the old shape, so it is
  // stale — a miss counted as invalidated.
  auto grown = state.analyze(units(/*dim=*/"140"), opts);
  ASSERT_TRUE(grown->ok);
  EXPECT_EQ(grown->cache_misses, 2u);
  EXPECT_EQ(grown->invalidated_units, 1u);
  EXPECT_EQ(grown->resident_hits, 0u);
  EXPECT_EQ(grown->units[1].status, UnitStatus::Analyzed);
  EXPECT_NE(rgn::write_rgn(grown->rows), rgn::write_rgn(cold->rows));

  // An edit that leaves the declaration alone (a trailing comment) leaves
  // use.c's imported shape current: only decl.c is summarized again.
  std::vector<SourceBuffer> commented = units(/*dim=*/"140");
  commented[0].text += "/* edited */\n";
  auto kept = state.analyze(commented, opts);
  ASSERT_TRUE(kept->ok);
  EXPECT_EQ(kept->cache_misses, 1u);
  EXPECT_EQ(kept->invalidated_units, 0u);
  EXPECT_EQ(kept->resident_hits, 1u);
  EXPECT_EQ(kept->units[1].status, UnitStatus::Cached);
  EXPECT_EQ(rgn::write_rgn(kept->rows), rgn::write_rgn(grown->rows));
}

TEST(GlobalImport, CacheDirReuseChecksTheImportedShapes) {
  // The same four cases through `run_batch` and a disk cache (no resident
  // state; every run starts from the entries the previous one stored).
  // Each run must export what a cache-less run of the same sources does.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ara_global_import_cache";
  fs::remove_all(dir);
  BatchOptions opts;
  opts.jobs = 2;
  opts.cache_dir = dir.string();
  auto run = [&](const std::vector<SourceBuffer>& sources) {
    BatchResult cached = run_batch(sources, opts, "globals");
    const BatchResult fresh = run_batch(sources, BatchOptions{}, "globals");
    EXPECT_EQ(cached.ok, fresh.ok);
    EXPECT_EQ(rgn::write_rgn(cached.link.rows), rgn::write_rgn(fresh.link.rows));
    EXPECT_EQ(rgn::write_dgn(cached.link.project), rgn::write_dgn(fresh.link.project));
    EXPECT_EQ(cached.link.cfg_text, fresh.link.cfg_text);
    EXPECT_EQ(cached.units.size(), fresh.units.size());
    for (std::size_t i = 0; i < cached.units.size() && i < fresh.units.size(); ++i) {
      EXPECT_EQ(cached.units[i].status == UnitStatus::Failed,
                fresh.units[i].status == UnitStatus::Failed)
          << cached.units[i].source_name;
      EXPECT_EQ(cached.units[i].diagnostics, fresh.units[i].diagnostics)
          << cached.units[i].source_name;
    }
    return cached;
  };

  const BatchResult cold = run(units());
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(cold.cache_misses, 2u);

  // Same sources: both units replay from disk.
  const BatchResult same = run(units());
  ASSERT_TRUE(same.ok);
  EXPECT_EQ(same.cache_hits, 2u);
  EXPECT_EQ(same.cache_misses, 0u);

  // Grown declaration: use.c's entry is found under its key but imported
  // the old shape, so it is stale.
  const BatchResult grown = run(units(/*dim=*/"140"));
  ASSERT_TRUE(grown.ok);
  EXPECT_EQ(grown.cache_misses, 2u);
  EXPECT_EQ(grown.invalidated_units, 1u);
  EXPECT_EQ(grown.units[1].status, UnitStatus::Analyzed);
  EXPECT_NE(rgn::write_rgn(grown.link.rows), rgn::write_rgn(cold.link.rows));

  // A comment in the declaring unit: use.c's entry (stored by the grown
  // run) is current and hits.
  std::vector<SourceBuffer> commented = units(/*dim=*/"140");
  commented[0].text += "/* edited */\n";
  const BatchResult kept = run(commented);
  ASSERT_TRUE(kept.ok);
  EXPECT_EQ(kept.cache_misses, 1u);
  EXPECT_EQ(kept.invalidated_units, 0u);
  EXPECT_EQ(kept.units[1].status, UnitStatus::Cached);
  EXPECT_EQ(rgn::write_rgn(kept.link.rows), rgn::write_rgn(grown.link.rows));

  // The declaration is gone: use.c's stored summary must not be reused, so
  // the unit compiles again and fails on the undeclared name.
  const std::vector<SourceBuffer> lost = {{"decl.c", decl_unit("140", "mesh"), Language::C},
                                          {"use.c", use_unit(), Language::C}};
  const BatchResult gone = run(lost);
  EXPECT_FALSE(gone.ok);
  EXPECT_TRUE(gone.partial);
  EXPECT_EQ(gone.cache_misses, 2u);
  EXPECT_EQ(gone.invalidated_units, 1u);
  ASSERT_EQ(gone.units.size(), 2u);
  EXPECT_EQ(gone.units[1].status, UnitStatus::Failed);

  fs::remove_all(dir);
}

TEST(GlobalImport, SignatureTracksTheDeclarationShapeOnly) {
  const fe::GlobalImportTable i130 = build_global_index(units());
  const fe::GlobalImportTable i140 = build_global_index(units(/*dim=*/"140"));

  // use.c's summary, compiled against the 130 x 130 declaration.
  ir::Program program;
  std::string diagnostics;
  std::vector<fe::ExternRef> externs;
  std::vector<std::string> imports;
  ASSERT_TRUE(compile_unit({"use.c", use_unit(), Language::C}, i130, program, &diagnostics,
                           &externs, &imports))
      << diagnostics;
  const UnitSummary use = summarize_unit(program, externs, imports);

  // Current against an identical declaration, stale when the shape changes
  // and when the index lost the name.
  EXPECT_TRUE(imports_current(use, i130));
  EXPECT_TRUE(imports_current(use, build_global_index(units())));
  EXPECT_FALSE(imports_current(use, i140));

  // A comment appended to the declaring unit leaves the shape alone.
  std::vector<SourceBuffer> commented = units();
  commented[0].text += "/* edited */\n";
  EXPECT_TRUE(imports_current(use, build_global_index(commented)));

  EXPECT_FALSE(imports_current(use, fe::GlobalImportTable{}));

  // A unit that imports nothing is current against any index.
  ir::Program decl_program;
  externs.clear();
  imports.clear();
  ASSERT_TRUE(compile_unit({"decl.c", decl_unit(), Language::C}, i140, decl_program,
                           &diagnostics, &externs, &imports));
  EXPECT_TRUE(imports.empty());
  EXPECT_TRUE(imports_current(summarize_unit(decl_program, externs, imports),
                              fe::GlobalImportTable{}));
}

}  // namespace
}  // namespace ara::serve
