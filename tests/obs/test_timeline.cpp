#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace ara::obs {
namespace {

class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    Timeline::instance().clear();
  }
  void TearDown() override {
    set_enabled(false);
    Timeline::instance().clear();
  }
};

const SpanEvent* find(const std::vector<SpanEvent>& events, std::string_view name) {
  for (const SpanEvent& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST_F(TimelineTest, NestedSpansRecordHierarchy) {
  {
    ARA_SPAN("outer", "test");
    { ARA_SPAN("inner-a", "test"); }
    { ARA_SPAN("inner-b", "test"); }
  }
  const auto events = Timeline::instance().completed();
  ASSERT_EQ(events.size(), 3u);
  const SpanEvent* outer = find(events, "outer");
  const SpanEvent* a = find(events, "inner-a");
  const SpanEvent* b = find(events, "inner-b");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(outer->parent, -1);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(events[static_cast<std::size_t>(a->parent)].name, "outer");
  EXPECT_EQ(events[static_cast<std::size_t>(b->parent)].name, "outer");
  EXPECT_EQ(a->depth, 1u);
}

TEST_F(TimelineTest, ParentDurationCoversSumOfChildren) {
  {
    ARA_SPAN("parent", "test");
    for (int i = 0; i < 16; ++i) {
      ARA_SPAN("child", "test");
      volatile int sink = 0;
      for (int j = 0; j < 1000; ++j) sink = sink + j;
    }
  }
  const auto events = Timeline::instance().completed();
  const SpanEvent* parent = find(events, "parent");
  ASSERT_NE(parent, nullptr);
  std::uint64_t child_sum = 0;
  for (const SpanEvent& e : events) {
    if (e.name == "child") {
      child_sum += e.dur_ns;
      // Children nest inside the parent interval.
      EXPECT_GE(e.start_ns, parent->start_ns);
      EXPECT_LE(e.start_ns + e.dur_ns, parent->start_ns + parent->dur_ns);
    }
  }
  EXPECT_GE(parent->dur_ns, child_sum);
}

TEST_F(TimelineTest, StartTimesAreMonotonic) {
  {
    ARA_SPAN("a");
    { ARA_SPAN("b"); }
  }
  { ARA_SPAN("c"); }
  const auto events = Timeline::instance().completed();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
  }
}

TEST_F(TimelineTest, DisabledSpansRecordNothing) {
  set_enabled(false);
  { ARA_SPAN("ghost"); }
  EXPECT_TRUE(Timeline::instance().empty());
}

TEST_F(TimelineTest, InstalledTimelineTakesTheThreadsSpans) {
  Timeline request;
  {
    const TimelineScope scope(request);
    EXPECT_EQ(&Timeline::current(), &request);
    ARA_SPAN("request", "test");
    { ARA_SPAN("inner", "test"); }
  }
  EXPECT_EQ(&Timeline::current(), &Timeline::instance());
  EXPECT_TRUE(Timeline::instance().empty());
  const auto events = request.completed();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "request");
  EXPECT_EQ(events[1].parent, 0);
  EXPECT_EQ(events[1].depth, 1u);
}

TEST_F(TimelineTest, SpansNestOnlyWithinTheirOwnTimeline) {
  Timeline request;
  {
    ARA_SPAN("outer", "test");
    {
      const TimelineScope scope(request);
      ARA_SPAN("root-of-request", "test");
    }
    ARA_SPAN("after", "test");
  }
  const auto req = request.completed();
  ASSERT_EQ(req.size(), 1u);
  EXPECT_EQ(req[0].parent, -1) << "a span under a newly installed timeline is a root";
  EXPECT_EQ(req[0].depth, 0u);
  const auto process = Timeline::instance().completed();
  ASSERT_EQ(process.size(), 2u);
  const SpanEvent* after = find(process, "after");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(process[static_cast<std::size_t>(after->parent)].name, "outer");
}

TEST_F(TimelineTest, ThreadsKeepTheirOwnOpenSpans) {
  // Every thread nests its spans under its own outer span, in one shared
  // timeline, while the others record concurrently.
  Timeline shared;
  constexpr int kThreads = 4;
  constexpr int kInner = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, t] {
      const TimelineScope scope(shared);
      set_lane(static_cast<std::uint32_t>(t + 1));
      ARA_SPAN("outer-" + std::to_string(t), "test");
      for (int i = 0; i < kInner; ++i) {
        ARA_SPAN("inner-" + std::to_string(t), "test");
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const auto events = shared.completed();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * (kInner + 1)));
  for (const SpanEvent& e : events) {
    if (e.name.rfind("inner-", 0) != 0) continue;
    ASSERT_GE(e.parent, 0);
    const SpanEvent& parent = events[static_cast<std::size_t>(e.parent)];
    EXPECT_EQ(parent.name, "outer-" + e.name.substr(6));
    EXPECT_EQ(parent.lane, e.lane);
    EXPECT_EQ(e.depth, 1u);
  }
  EXPECT_TRUE(Timeline::instance().empty());
}

TEST_F(TimelineTest, ClearDropsEventsAndRebasesEpoch) {
  { ARA_SPAN("x"); }
  ASSERT_FALSE(Timeline::instance().empty());
  Timeline::instance().clear();
  EXPECT_TRUE(Timeline::instance().empty());
  { ARA_SPAN("y"); }
  const auto events = Timeline::instance().completed();
  ASSERT_EQ(events.size(), 1u);
  // Fresh epoch: the new span starts near zero (well under a second).
  EXPECT_LT(events[0].start_ns, 1'000'000'000ull);
}

}  // namespace
}  // namespace ara::obs
