// The per-unit lifecycle events a batch run returns in BatchResult::events:
// complete lifecycle coverage through the real batch engine in (unit,
// stage) order — the same across --jobs values apart from t_ns/lane — the
// `detail` values (resident hits and import-shape invalidations here; disk
// hits and compile failures through the shipped binary in
// arac_ledger_cli), and the JSONL rendering.
#include "obs/eventlog.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/stats.hpp"
#include "serve/engine.hpp"
#include "support/json.hpp"

namespace ara::obs {
namespace {

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
  void TearDown() override { set_enabled(false); }
};

serve::SourceBuffer unit(const std::string& name, int trip) {
  return {name + ".f",
          "subroutine " + name + "(x)\n"
          "  integer, dimension(1:100) :: x\n"
          "  integer :: i\n"
          "  do i = 1, " + std::to_string(trip) + "\n"
          "    x(i) = i\n"
          "  end do\n"
          "end subroutine " + name + "\n",
          Language::Fortran};
}

std::vector<serve::SourceBuffer> six_units() {
  std::vector<serve::SourceBuffer> sources;
  for (int i = 0; i < 6; ++i) sources.push_back(unit("u" + std::to_string(i), 10 + i));
  return sources;
}

/// The --jobs-stable identity of an event: everything except t_ns and lane,
/// which are measurements of the particular run.
using Key = std::tuple<std::uint32_t, std::string, std::string, std::string>;

std::vector<Key> keys_of(const std::vector<EventRecord>& events) {
  std::vector<Key> keys;
  keys.reserve(events.size());
  for (const EventRecord& e : events) {
    keys.emplace_back(e.unit, e.unit_name, std::string(to_string(e.event)), e.detail);
  }
  return keys;
}

/// Checks that every unit has exactly `stages` in order, with `detail` on
/// the given stages.
void expect_lifecycles(const std::vector<EventRecord>& events,
                       const std::vector<serve::SourceBuffer>& sources,
                       const std::vector<UnitEvent>& stages,
                       const std::vector<std::string>& details) {
  ASSERT_EQ(events.size(), sources.size() * stages.size());
  for (std::size_t u = 0; u < sources.size(); ++u) {
    for (std::size_t s = 0; s < stages.size(); ++s) {
      const EventRecord& e = events[u * stages.size() + s];
      EXPECT_EQ(e.unit, u);
      EXPECT_EQ(e.unit_name, sources[u].name);
      EXPECT_EQ(e.event, stages[s]) << "unit " << u << " stage " << s;
      EXPECT_EQ(e.detail, details[s]) << "unit " << u << " stage " << s;
    }
  }
}

TEST_F(EventLogTest, BatchRunCoversEveryUnitsFullLifecycle) {
  const auto sources = six_units();
  serve::BatchOptions opts;
  opts.jobs = 4;
  const serve::BatchResult r = serve::run_batch(sources, opts, "ledger");
  ASSERT_TRUE(r.ok);
  // No cache dir: every unit misses.
  expect_lifecycles(r.events, sources,
                    {UnitEvent::Queued, UnitEvent::Started, UnitEvent::CacheMiss,
                     UnitEvent::Summarized, UnitEvent::Linked},
                    {"", "", "", "", ""});
  // Within a unit the stages happen in order, timed from the batch start.
  for (std::size_t i = 1; i < r.events.size(); ++i) {
    if (r.events[i].unit == r.events[i - 1].unit) {
      EXPECT_GE(r.events[i].t_ns, r.events[i - 1].t_ns) << "event " << i;
    }
  }
  EXPECT_LT(r.events.front().t_ns, 1'000'000'000ull);
}

TEST_F(EventLogTest, ResidentHitsCarryTheResidentDetail) {
  const auto sources = six_units();
  serve::BatchOptions opts;
  opts.jobs = 2;
  serve::IncrementalState inc;
  ASSERT_TRUE(serve::run_batch(sources, opts, "warm", &inc).ok);
  const serve::BatchResult r = serve::run_batch(sources, opts, "warm", &inc);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.resident_hits, sources.size());
  expect_lifecycles(r.events, sources,
                    {UnitEvent::Queued, UnitEvent::Started, UnitEvent::CacheHit,
                     UnitEvent::Summarized, UnitEvent::Linked},
                    {"", "", "resident", "resident", ""});
}

TEST_F(EventLogTest, StaleImportedShapeMissCarriesTheInvalidatedDetail) {
  // use.c reads a global that decl.c declares. Growing the declaration
  // leaves use.c's text and key alone, but its resident summary imported
  // the old shape: a miss with detail `invalidated`, re-summarized in full.
  auto sources = [](const std::string& dim) {
    return std::vector<serve::SourceBuffer>{
        {"decl.c", "double grid[" + dim + "];\nvoid fill(void) { grid[0] = 1.0; }\n",
         Language::C},
        {"use.c", "double total;\nvoid reduce(void) { total = grid[2]; }\n", Language::C}};
  };
  serve::BatchOptions opts;
  opts.jobs = 2;
  serve::IncrementalState inc;
  ASSERT_TRUE(serve::run_batch(sources("8"), opts, "stale", &inc).ok);
  const serve::BatchResult r = serve::run_batch(sources("16"), opts, "stale", &inc);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.cache_misses, 2u);
  EXPECT_EQ(r.invalidated_units, 1u);
  const std::vector<Key> want = {
      {0, "decl.c", "queued", ""},     {0, "decl.c", "started", ""},
      {0, "decl.c", "cache_miss", ""}, {0, "decl.c", "summarized", ""},
      {0, "decl.c", "linked", ""},     {1, "use.c", "queued", ""},
      {1, "use.c", "started", ""},     {1, "use.c", "cache_miss", "invalidated"},
      {1, "use.c", "summarized", ""},  {1, "use.c", "linked", ""}};
  EXPECT_EQ(keys_of(r.events), want);
}

TEST_F(EventLogTest, EventsAreIdenticalAcrossJobCounts) {
  const auto sources = six_units();
  serve::BatchOptions opts;
  opts.jobs = 1;
  const serve::BatchResult serial = serve::run_batch(sources, opts, "det");
  ASSERT_TRUE(serial.ok);
  ASSERT_FALSE(serial.events.empty());

  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
    opts.jobs = jobs;
    const serve::BatchResult r = serve::run_batch(sources, opts, "det");
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(keys_of(r.events), keys_of(serial.events)) << "--jobs " << jobs;
  }
}

TEST_F(EventLogTest, FailedUnitRecordsFailureKindDetail) {
  auto sources = six_units();
  sources[2].text = "subroutine broken(\n";  // parse error
  serve::BatchOptions opts;
  opts.jobs = 2;
  const serve::BatchResult r = serve::run_batch(sources, opts, "fail");
  EXPECT_FALSE(r.ok);

  std::vector<Key> unit2;
  for (const EventRecord& e : r.events) {
    if (e.unit == 2) unit2.emplace_back(e.unit, e.unit_name, to_string(e.event), e.detail);
  }
  // Failed carries the FailureKind; the unit reaches neither summarized nor
  // linked.
  const std::vector<Key> want = {{2, "u2.f", "queued", ""},
                                 {2, "u2.f", "started", ""},
                                 {2, "u2.f", "cache_miss", ""},
                                 {2, "u2.f", "failed", "compile"}};
  EXPECT_EQ(unit2, want);
  EXPECT_EQ(r.events.size(), 5 * 5 + 4u);
}

TEST_F(EventLogTest, DisabledTelemetryRecordsNoEvents) {
  set_enabled(false);
  const auto sources = six_units();
  serve::BatchOptions opts;
  opts.jobs = 2;
  const serve::BatchResult r = serve::run_batch(sources, opts, "off");
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.events.empty());
}

TEST_F(EventLogTest, JsonlRenderingHasValidHeaderAndOneObjectPerLine) {
  const std::vector<EventRecord> events = {
      {0, "a.f", UnitEvent::Queued, 0, 10, ""},
      {0, "a.f", UnitEvent::Started, 1, 20, ""},
      {0, "a.f", UnitEvent::Failed, 1, 30, "compile"},
  };
  const std::string text = write_events_jsonl(events, "unit-test");

  std::istringstream in(text);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  std::string err;
  const auto header = json::parse(line, &err);
  ASSERT_TRUE(header.has_value()) << err;
  EXPECT_EQ(header->find("schema")->string, "ara.events.v1");
  EXPECT_EQ(header->find("run")->string, "unit-test");
  EXPECT_DOUBLE_EQ(header->find("events")->number, 3.0);

  std::size_t body_lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto ev = json::parse(line, &err);
    ASSERT_TRUE(ev.has_value()) << err << ": " << line;
    for (const char* field : {"unit", "name", "event", "lane", "t_ns"}) {
      EXPECT_NE(ev->find(field), nullptr) << field;
    }
    if (ev->find("event")->string == "failed") {
      ASSERT_NE(ev->find("detail"), nullptr);
      EXPECT_EQ(ev->find("detail")->string, "compile");
    } else {
      EXPECT_EQ(ev->find("detail"), nullptr);
    }
    ++body_lines;
  }
  EXPECT_EQ(body_lines, 3u);
}

}  // namespace
}  // namespace ara::obs
