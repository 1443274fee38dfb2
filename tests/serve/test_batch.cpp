// End-to-end tests of the batch-analysis engine (serve::run_batch): output
// bytes must be independent of --jobs and of cache hits vs misses, must
// match the monolithic pipeline, and incremental re-analysis must recompile
// exactly the edited units (verified through the serve.* obs counters).
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "rgn/dgn.hpp"
#include "rgn/region_row.hpp"

namespace ara::serve {
namespace {

namespace fs = std::filesystem;

// Fig 1 of the paper, split across three translation units so the engine
// has real cross-unit calls (add.f calls procedures it cannot see).
constexpr const char* kP1 = R"(
subroutine p1(a, j)
  integer, dimension(1:200, 1:200) :: a
  integer :: j, i, k
  do i = 1, 100
    do k = 1, 100
      a(i, k) = i + k + j
    end do
  end do
end subroutine p1
)";

constexpr const char* kP2 = R"(
subroutine p2(a, j)
  integer, dimension(1:200, 1:200) :: a
  integer :: j, i, k, s
  s = 0
  do i = 101, 200
    do k = 101, 200
      s = s + a(i, k)
    end do
  end do
end subroutine p2
)";

constexpr const char* kAdd = R"(
subroutine add
  integer, dimension(1:200, 1:200) :: a
  integer :: m, j
  m = 10
  do j = 1, m
    call p1(a, j)
    call p2(a, j)
  end do
end subroutine add
)";

std::vector<SourceBuffer> fig1_units() {
  return {{"p1.f", kP1, Language::Fortran},
          {"p2.f", kP2, Language::Fortran},
          {"add.f", kAdd, Language::Fortran}};
}

std::uint64_t counter(const std::string& name) {
  for (const obs::StatEntry& e : obs::StatsRegistry::instance().snapshot()) {
    if (e.name == name) return e.value;
  }
  return 0;
}

/// Every artifact the engine exports, as bytes.
struct Artifacts {
  std::string rgn;
  std::string dgn;
  std::string cfg;
};

Artifacts artifacts_of(const BatchResult& r) {
  return {rgn::write_rgn(r.link.rows), rgn::write_dgn(r.link.project), r.link.cfg_text};
}

TEST(Batch, OutputIsIndependentOfJobCount) {
  const std::vector<SourceBuffer> sources = fig1_units();
  BatchOptions opts;
  opts.jobs = 1;
  const BatchResult serial = run_batch(sources, opts, "fig1");
  ASSERT_TRUE(serial.ok);
  EXPECT_FALSE(serial.link.rows.empty());
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    opts.jobs = jobs;
    const BatchResult parallel = run_batch(sources, opts, "fig1");
    ASSERT_TRUE(parallel.ok);
    const Artifacts a = artifacts_of(serial);
    const Artifacts b = artifacts_of(parallel);
    EXPECT_EQ(a.rgn, b.rgn) << "--jobs " << jobs;
    EXPECT_EQ(a.dgn, b.dgn) << "--jobs " << jobs;
    EXPECT_EQ(a.cfg, b.cfg) << "--jobs " << jobs;
  }
}

TEST(Batch, MatchesMonolithicPipeline) {
  // The tentpole acceptance: the batch engine's linked output must be
  // byte-identical to the whole-program pipeline on the same sources.
  driver::Compiler cc;
  cc.add_source("p1.f", kP1, Language::Fortran);
  cc.add_source("p2.f", kP2, Language::Fortran);
  cc.add_source("add.f", kAdd, Language::Fortran);
  ASSERT_TRUE(cc.compile()) << cc.diagnostics().render();
  const ipa::AnalysisResult mono = cc.analyze();

  BatchOptions opts;
  opts.jobs = 4;
  const BatchResult batch = run_batch(fig1_units(), opts, "fig1");
  ASSERT_TRUE(batch.ok);
  EXPECT_EQ(rgn::write_rgn(batch.link.rows), rgn::write_rgn(mono.rows));
  EXPECT_EQ(rgn::write_dgn(batch.link.project),
            rgn::write_dgn(ipa::dgn_project(cc.program(), mono.callgraph, "fig1")));
}

/// Every unit of the NAS LU workload, in file-name order.
std::vector<SourceBuffer> lu_units() {
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

/// Runs `sources` cold and then warm against an empty cache in `dir`, then
/// gives each unit in `edits` a comment edit in turn (earlier edits stay):
/// every edit must re-analyze exactly the edited unit and export the same
/// bytes as a cache-less run of the edited sources.
void expect_each_edit_reanalyzes_only_that_unit(std::vector<SourceBuffer> sources,
                                                const std::vector<std::size_t>& edits,
                                                const fs::path& dir) {
  fs::remove_all(dir);
  obs::set_enabled(true);
  BatchOptions opts;
  opts.jobs = 4;
  opts.cache_dir = dir.string();

  obs::StatsRegistry::instance().reset();
  const BatchResult cold = run_batch(sources, opts, "incr");
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, sources.size());
  EXPECT_EQ(counter("serve.units_analyzed"), sources.size());

  // Unchanged rerun: everything replays from the cache.
  obs::StatsRegistry::instance().reset();
  const BatchResult warm = run_batch(sources, opts, "incr");
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.cache_hits, sources.size());
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(counter("serve.units_analyzed"), 0u);
  for (const UnitReport& u : warm.units) EXPECT_EQ(u.status, UnitStatus::Cached);

  BatchOptions nocache;
  nocache.jobs = 1;
  for (const std::size_t k : edits) {
    SCOPED_TRACE(sources[k].name);
    sources[k].text += "\n! edited\n";
    obs::StatsRegistry::instance().reset();
    const BatchResult incr = run_batch(sources, opts, "incr");
    ASSERT_TRUE(incr.ok);
    EXPECT_EQ(incr.cache_hits, sources.size() - 1);
    EXPECT_EQ(incr.cache_misses, 1u);
    EXPECT_EQ(incr.invalidated_units, 0u);
    EXPECT_EQ(counter("serve.units_analyzed"), 1u);
    EXPECT_EQ(counter("serve.cache_misses"), 1u);
    EXPECT_EQ(incr.units[k].status, UnitStatus::Analyzed);

    // Incremental output must equal a cold, cache-less run of the same edit.
    const BatchResult fresh = run_batch(sources, nocache, "incr");
    ASSERT_TRUE(fresh.ok);
    const Artifacts a = artifacts_of(incr);
    const Artifacts b = artifacts_of(fresh);
    EXPECT_EQ(a.rgn, b.rgn);
    EXPECT_EQ(a.dgn, b.dgn);
    EXPECT_EQ(a.cfg, b.cfg);
  }

  obs::set_enabled(false);
  fs::remove_all(dir);
}

TEST(Batch, IncrementalReanalysisRecompilesOnlyTheEditedUnit) {
  // Ten units: the fig1 trio plus eight free-standing clones; edit q4.f.
  std::vector<SourceBuffer> sources = fig1_units();
  for (int i = 3; i <= 10; ++i) {
    const std::string n = std::to_string(i);
    sources.push_back({"q" + n + ".f",
                       "subroutine q" + n + "(x)\n"
                       "  integer, dimension(1:50) :: x\n"
                       "  integer :: i\n"
                       "  do i = 1, 50\n"
                       "    x(i) = i\n"
                       "  end do\n"
                       "end subroutine q" + n + "\n",
                       Language::Fortran});
  }
  expect_each_edit_reanalyzes_only_that_unit(sources, {4},
                                             fs::temp_directory_path() / "ara_batch_incr");

  // NAS LU: every one of its 20 units, callers and callees alike.
  const std::vector<SourceBuffer> lu = lu_units();
  ASSERT_EQ(lu.size(), 20u);
  std::vector<std::size_t> every(lu.size());
  std::iota(every.begin(), every.end(), std::size_t{0});
  expect_each_edit_reanalyzes_only_that_unit(lu, every,
                                             fs::temp_directory_path() / "ara_batch_incr_lu");
}

TEST(Batch, FailedUnitReportsDiagnosticsInInputOrder) {
  std::vector<SourceBuffer> sources = fig1_units();
  sources[1].text = "subroutine broken(\n";  // parse error
  BatchOptions opts;
  opts.jobs = 4;
  const BatchResult r = run_batch(sources, opts, "bad");
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.units.size(), 3u);
  EXPECT_EQ(r.units[0].status, UnitStatus::Analyzed);
  EXPECT_EQ(r.units[1].status, UnitStatus::Failed);
  EXPECT_EQ(r.units[1].source_name, "p2.f");
  EXPECT_FALSE(r.units[1].diagnostics.empty());
  EXPECT_EQ(r.units[2].status, UnitStatus::Analyzed);
}

TEST(Batch, UnresolvedExternFailsAtLink) {
  // add.f calls p2 but no unit defines it.
  std::vector<SourceBuffer> sources = fig1_units();
  sources.erase(sources.begin() + 1);
  BatchOptions opts;
  const BatchResult r = run_batch(sources, opts, "unresolved");
  EXPECT_FALSE(r.ok);
  const std::string diags = r.link.diags.render();
  EXPECT_NE(diags.find("unknown procedure 'p2'"), std::string::npos) << diags;
}

TEST(Batch, DuplicateDefinitionFailsAtLink) {
  std::vector<SourceBuffer> sources = fig1_units();
  sources.push_back({"p1_again.f", kP1, Language::Fortran});
  BatchOptions opts;
  const BatchResult r = run_batch(sources, opts, "dup");
  EXPECT_FALSE(r.ok);
  const std::string diags = r.link.diags.render();
  EXPECT_NE(diags.find("redefinition of procedure 'p1'"), std::string::npos) << diags;
}

TEST(Batch, NoIpaModeLinksWithoutInterprocRecords) {
  BatchOptions opts;
  opts.interprocedural = false;
  const BatchResult r = run_batch(fig1_units(), opts, "noipa");
  ASSERT_TRUE(r.ok);
  for (const rgn::RegionRow& row : r.link.rows) {
    EXPECT_NE(row.mode, "IDEF") << row.array;
    EXPECT_NE(row.mode, "IUSE") << row.array;
  }
}

TEST(Batch, SpansGoToTheCallersInstalledTimeline) {
  obs::set_enabled(true);
  obs::Timeline::instance().clear();
  obs::Timeline run;
  BatchOptions opts;
  opts.jobs = 4;
  BatchResult pooled;
  {
    const obs::TimelineScope scope(run);
    pooled = run_batch(fig1_units(), opts, "fig1");
  }
  ASSERT_TRUE(pooled.ok);
  EXPECT_TRUE(obs::Timeline::instance().empty());

  const std::vector<obs::SpanEvent> spans = run.completed();
  auto find = [](const std::vector<obs::SpanEvent>& in,
                 const std::string& name) -> const obs::SpanEvent* {
    for (const obs::SpanEvent& e : in) {
      if (e.name == name && e.cat == "serve") return &e;
    }
    return nullptr;
  };
  const obs::SpanEvent* batch = find(spans, "batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->parent, -1);
  for (const char* child : {"units", "link"}) {
    const obs::SpanEvent* e = find(spans, child);
    ASSERT_NE(e, nullptr) << child;
    ASSERT_GE(e->parent, 0) << child;
    EXPECT_EQ(spans[static_cast<std::size_t>(e->parent)].name, "batch") << child;
  }
  // One span per unit, each a root on the lane of the pool worker that ran
  // it: workers are lanes 1..N, lane 0 stays the caller's.
  for (const SourceBuffer& src : fig1_units()) {
    EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                            [&src](const obs::SpanEvent& e) {
                              return e.name == src.name && e.cat == "serve";
                            }),
              1)
        << src.name;
    const obs::SpanEvent* unit = find(spans, src.name);
    ASSERT_NE(unit, nullptr) << src.name;
    EXPECT_EQ(unit->parent, -1) << src.name;
    EXPECT_GE(unit->lane, 1u) << src.name;
    EXPECT_LE(unit->lane, opts.jobs) << src.name;
  }
  for (const obs::EventRecord& e : pooled.events) {
    if (e.event != obs::UnitEvent::Started) continue;
    EXPECT_GE(e.lane, 1u) << e.unit_name;
    EXPECT_LE(e.lane, opts.jobs) << e.unit_name;
  }
  EXPECT_EQ(obs::lane(), 0u);

  // An inline run (jobs 1) keeps the caller's lane, during and after.
  constexpr std::uint32_t kCallerLane = 7;
  obs::set_lane(kCallerLane);
  obs::Timeline inline_run;
  opts.jobs = 1;
  BatchResult serial;
  {
    const obs::TimelineScope scope(inline_run);
    serial = run_batch(fig1_units(), opts, "fig1");
  }
  EXPECT_EQ(obs::lane(), kCallerLane);
  obs::set_lane(0);
  obs::set_enabled(false);
  ASSERT_TRUE(serial.ok);
  const std::vector<obs::SpanEvent> serial_spans = inline_run.completed();
  for (const SourceBuffer& src : fig1_units()) {
    const obs::SpanEvent* unit = find(serial_spans, src.name);
    ASSERT_NE(unit, nullptr) << src.name;
    EXPECT_EQ(unit->lane, kCallerLane) << src.name;
  }
  ASSERT_FALSE(serial.events.empty());
  for (const obs::EventRecord& e : serial.events) {
    EXPECT_EQ(e.lane, kCallerLane) << e.unit_name << ' ' << obs::to_string(e.event);
  }
}

}  // namespace
}  // namespace ara::serve
