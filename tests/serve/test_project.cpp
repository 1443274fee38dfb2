// The daemon's warm per-project state (serve::ProjectState) and the
// incremental contract on a 10-unit call chain and on NAS LU: an edit to
// one unit re-summarizes exactly that unit, callers included (verified
// through the snapshot's counters), everything else replays from resident
// memory, and the published artifacts stay byte-identical to a cold full
// analysis of the same sources.
#include "serve/project.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "obs/provenance.hpp"
#include "rgn/region_row.hpp"

namespace ara::serve {
namespace {

/// The snapshot's provenance as `query` `artifact: provenance` renders it.
std::string jsonl(const ProjectSnapshot& snap, std::string_view project) {
  return obs::write_provenance_jsonl(snap.provenance, project);
}

constexpr std::size_t kUnits = 10;

/// Unit i defines step_i (touching its own file-scope array) and calls
/// step_{i+1} — a 10-deep call chain, so units 0..k-1 call into unit k.
std::string unit_text(std::size_t i, bool edited = false) {
  const std::string n = std::to_string(i);
  std::string text;
  text += "double a" + n + "[32][32];\n";
  text += "void step" + n + "(void) {\n";
  text += "  int i, j;\n";
  text += "  for (i = 0; i < 32; i++) {\n";
  text += "    for (j = 0; j < 32; j++) {\n";
  text += "      a" + n + "[i][j] = i + j;\n";
  text += "    }\n";
  text += "  }\n";
  if (i + 1 < kUnits) text += "  step" + std::to_string(i + 1) + "();\n";
  text += "}\n";
  if (edited) text += "/* edited */\n";
  return text;
}

std::vector<SourceBuffer> project_units(std::size_t edited_unit = kUnits) {
  std::vector<SourceBuffer> units;
  for (std::size_t i = 0; i < kUnits; ++i) {
    units.push_back(
        {"u" + std::to_string(i) + ".c", unit_text(i, i == edited_unit), Language::C});
  }
  return units;
}

TEST(ProjectState, ColdThenWarmThenIncremental) {
  ProjectState state("ten");
  const BatchOptions opts;  // no cache dir: resident state only

  // Cold: every unit analyzed, nothing invalid.
  auto cold = state.analyze(project_units(), opts);
  ASSERT_TRUE(cold->ok);
  EXPECT_EQ(cold->generation, 1u);
  EXPECT_EQ(cold->cache_misses, kUnits);
  EXPECT_EQ(cold->resident_hits, 0u);
  EXPECT_EQ(cold->invalidated_units, 0u);

  // Warm, unchanged: all ten replay from resident memory.
  auto warm = state.analyze(project_units(), opts);
  ASSERT_TRUE(warm->ok);
  EXPECT_EQ(warm->generation, 2u);
  EXPECT_EQ(warm->cache_misses, 0u);
  EXPECT_EQ(warm->resident_hits, kUnits);
  EXPECT_EQ(rgn::write_rgn(warm->rows), rgn::write_rgn(cold->rows));

  // Edit unit 7 (a trailing comment: content hash changes, semantics do
  // not). Units 0..6 call into it transitively, but a summary depends only
  // on its own unit (the link re-propagates every run), so only u7 is
  // summarized again and the other nine stay resident.
  auto inc = state.analyze(project_units(/*edited_unit=*/7), opts);
  ASSERT_TRUE(inc->ok);
  EXPECT_EQ(inc->cache_misses, 1u);
  EXPECT_EQ(inc->invalidated_units, 0u);
  EXPECT_EQ(inc->resident_hits, 9u);

  // The incremental result is byte-identical to a cold full analysis of
  // the edited sources, artifact for artifact. (Same project name: the
  // dgn header and provenance run id embed it.)
  ProjectState fresh("ten");
  auto full = fresh.analyze(project_units(/*edited_unit=*/7), opts);
  ASSERT_TRUE(full->ok);
  EXPECT_EQ(rgn::write_rgn(inc->rows), rgn::write_rgn(full->rows));
  EXPECT_EQ(inc->dgn_text, full->dgn_text);
  EXPECT_EQ(inc->cfg_text, full->cfg_text);
  EXPECT_EQ(jsonl(*inc, "ten"), jsonl(*full, "ten"));
}

TEST(ProjectState, EditingALeafInvalidatesOnlyTheLeaf) {
  ProjectState state("leaf");
  const BatchOptions opts;
  ASSERT_TRUE(state.analyze(project_units(), opts)->ok);

  // Unit 0 is the chain head: nothing depends on it, so editing it
  // re-summarizes exactly one unit.
  auto inc = state.analyze(project_units(/*edited_unit=*/0), opts);
  ASSERT_TRUE(inc->ok);
  EXPECT_EQ(inc->cache_misses, 1u);
  EXPECT_EQ(inc->invalidated_units, 0u);
  EXPECT_EQ(inc->resident_hits, kUnits - 1);
}

/// Every unit of the NAS LU workload, in file-name order.
std::vector<SourceBuffer> lu_units() {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const fs::directory_entry& e : fs::directory_iterator(fs::path(ARA_WORKLOADS_DIR) / "lu")) {
    if (e.path().extension() == ".f") paths.push_back(e.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceBuffer> units;
  for (const fs::path& p : paths) {
    std::optional<SourceBuffer> src = read_source(p, nullptr);
    if (src) units.push_back(std::move(*src));
  }
  return units;
}

TEST(ProjectState, EachLuEditResummarizesOnlyTheEditedUnit) {
  // Resident state only (no cache dir): each of LU's 20 units gets a
  // comment edit in turn, earlier edits kept, and every published artifact
  // must equal a cold analysis of the edited sources.
  std::vector<SourceBuffer> sources = lu_units();
  ASSERT_EQ(sources.size(), 20u);
  ProjectState state("lu");
  BatchOptions opts;
  opts.jobs = 4;
  ASSERT_TRUE(state.analyze(sources, opts)->ok);

  for (SourceBuffer& edited : sources) {
    SCOPED_TRACE(edited.name);
    edited.text += "\n! edited\n";
    auto inc = state.analyze(sources, opts);
    ASSERT_TRUE(inc->ok);
    EXPECT_EQ(inc->cache_misses, 1u);
    EXPECT_EQ(inc->resident_hits, sources.size() - 1);
    EXPECT_EQ(inc->invalidated_units, 0u);
    for (const UnitReport& u : inc->units) {
      EXPECT_EQ(u.status, u.source_name == edited.name ? UnitStatus::Analyzed
                                                        : UnitStatus::Cached)
          << u.source_name;
    }

    ProjectState fresh("lu");
    auto full = fresh.analyze(sources, BatchOptions{});
    ASSERT_TRUE(full->ok);
    EXPECT_EQ(rgn::write_rgn(inc->rows), rgn::write_rgn(full->rows));
    EXPECT_EQ(inc->dgn_text, full->dgn_text);
    EXPECT_EQ(inc->cfg_text, full->cfg_text);
    EXPECT_EQ(jsonl(*inc, "lu"), jsonl(*full, "lu"));
  }
}

TEST(ProjectState, SnapshotSurvivesReanalysisAndFailure) {
  ProjectState state("stale-reads");
  const BatchOptions opts;
  auto first = state.analyze(project_units(), opts);
  ASSERT_TRUE(first->ok);

  // A reader's shared_ptr stays valid and unchanged while later analyses
  // publish new snapshots.
  auto held = state.snapshot();
  ASSERT_EQ(held, first);

  // A broken edit fails that unit, but the previous snapshot is still
  // what readers hold; the new snapshot reports the failure (partial:
  // the survivors linked).
  std::vector<SourceBuffer> broken = project_units();
  broken[3].text = "void step3(void) { this does not compile\n";
  auto bad = state.analyze(broken, opts);
  EXPECT_FALSE(bad->ok);
  EXPECT_TRUE(bad->partial);
  EXPECT_EQ(bad->failed_units, 1u);
  EXPECT_EQ(rgn::write_rgn(held->rows), rgn::write_rgn(first->rows));
  EXPECT_EQ(state.snapshot(), bad);

  // Fixing the unit recovers a clean generation.
  auto fixed = state.analyze(project_units(), opts);
  ASSERT_TRUE(fixed->ok);
  EXPECT_EQ(rgn::write_rgn(fixed->rows), rgn::write_rgn(first->rows));
}

TEST(ProjectState, ResidentBytesGrowWithState) {
  ProjectState state("bytes");
  EXPECT_EQ(state.snapshot(), nullptr);
  const std::size_t before = state.resident_bytes();
  ASSERT_TRUE(state.analyze(project_units(), BatchOptions{})->ok);
  EXPECT_GT(state.resident_bytes(), before);
}

}  // namespace
}  // namespace ara::serve
