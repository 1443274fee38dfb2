// Cross-unit global-declaration import (scoped v1, C): a unit referencing a
// file-scope array declared in a sibling unit must analyze under separate
// compilation exactly as it does in the whole-program pipeline, and the
// import must be part of the cache key — changing the *declaration* re-
// analyzes the importing unit, while unrelated edits to the declaring unit
// leave it resident.
#include "serve/globals.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "rgn/dgn.hpp"
#include "rgn/region_row.hpp"
#include "serve/project.hpp"

namespace ara::serve {
namespace {

/// Declares the shared grid and fills it (the heat_kernels.c shape).
std::string decl_unit(const std::string& dim = "130") {
  std::string text;
  text += "double grid[" + dim + "][" + dim + "];\n";
  text += "void fill(void) {\n  int i, j;\n";
  text += "  for (i = 0; i < 128; i++) {\n    for (j = 0; j < 128; j++) {\n";
  text += "      grid[i][j] = i * j;\n    }\n  }\n}\n";
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
  EXPECT_EQ(warm->rgn_text, cold->rgn_text);

  // Growing the shared array changes use.c's analysis (dims come from the
  // declared extent) even though use.c's text is untouched: its cache key
  // carries the import signature, so the new shape makes use.c itself a
  // changed unit — a direct miss, not a dependency invalidation.
  auto grown = state.analyze(units(/*dim=*/"140"), opts);
  ASSERT_TRUE(grown->ok);
  EXPECT_EQ(grown->cache_misses, 2u);
  EXPECT_EQ(grown->invalidated_units, 0u);
  EXPECT_EQ(grown->resident_hits, 0u);
  EXPECT_NE(grown->rgn_text, cold->rgn_text);

  // An edit that leaves the declaration alone (a trailing comment) keeps
  // use.c's key intact, but the depmap records use.c -> decl.c, so the
  // dependents closure still drags it along — deliberately conservative.
  std::vector<SourceBuffer> commented = units(/*dim=*/"140");
  commented[0].text += "/* edited */\n";
  auto conservative = state.analyze(commented, opts);
  ASSERT_TRUE(conservative->ok);
  EXPECT_EQ(conservative->cache_misses, 2u);
  EXPECT_EQ(conservative->invalidated_units, 1u);
  EXPECT_EQ(conservative->rgn_text, grown->rgn_text);
}

TEST(GlobalImport, SignatureTracksTheDeclarationShapeOnly) {
  const fe::GlobalImportTable i130 = build_global_index(units());
  const fe::GlobalImportTable i140 = build_global_index(units(/*dim=*/"140"));

  // Same cache-key suffix for an identical declaration, a different one
  // when the shape changes, and a sentinel for a name the index lost.
  const std::vector<std::string> imports = {"grid"};
  EXPECT_EQ(import_flags(imports, i130), import_flags(imports, build_global_index(units())));
  EXPECT_NE(import_flags(imports, i130), import_flags(imports, i140));

  // A comment appended to the declaring unit leaves the signature alone.
  std::vector<SourceBuffer> commented = units();
  commented[0].text += "/* edited */\n";
  EXPECT_EQ(import_flags(imports, i130), import_flags(imports, build_global_index(commented)));

  EXPECT_NE(import_flags(imports, i130), import_flags(imports, fe::GlobalImportTable{}));
}

}  // namespace
}  // namespace ara::serve
