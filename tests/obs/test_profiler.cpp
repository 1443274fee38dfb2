// The folded span profile (`arac --profile`): obs::render_folded over
// hand-built span forests. Each line is one span path with its self time in
// whole microseconds, the grouping the time report uses, sorted bytewise.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/report.hpp"
#include "obs/timeline.hpp"

namespace ara::obs {
namespace {

/// A completed span of `dur_us` microseconds under event `parent` (-1 = root).
SpanEvent span(std::string name, std::uint64_t dur_us, std::int32_t parent = -1) {
  SpanEvent ev;
  ev.name = std::move(name);
  ev.dur_ns = dur_us * 1000;
  ev.parent = parent;
  return ev;
}

TEST(FoldedProfile, EmptyTimelineRendersNothing) { EXPECT_EQ(render_folded({}), ""); }

TEST(FoldedProfile, WeightsAreSelfTimesInMicroseconds) {
  // main (100 us) holds parse (30 us), which holds lex (10 us), and sema
  // (45 us).
  const std::vector<SpanEvent> events = {span("main", 100), span("parse", 30, 0),
                                         span("lex", 10, 1), span("sema", 45, 0)};
  EXPECT_EQ(render_folded(events),
            "main 25\n"
            "main;parse 20\n"
            "main;parse;lex 10\n"
            "main;sema 45\n");
}

TEST(FoldedProfile, SameNamedSiblingsMergeIntoOnePath) {
  // Two per-unit spans of the same name under one parent sum, as the time
  // report's Count column does; their children merge the same way.
  const std::vector<SpanEvent> events = {span("units", 50),        span("a.f", 20, 0),
                                         span("parse", 5, 1),      span("a.f", 30, 0),
                                         span("parse", 7, 3)};
  EXPECT_EQ(render_folded(events),
            "units 0\n"
            "units;a.f 38\n"
            "units;a.f;parse 12\n");
}

TEST(FoldedProfile, PathsSortBytewiseAndRootsStaySeparate) {
  // Worker spans are roots of their own lane; a root named like a child
  // elsewhere is its own path.
  const std::vector<SpanEvent> events = {span("z", 3), span("b", 2), span("a", 9, 1),
                                         span("a", 4)};
  EXPECT_EQ(render_folded(events),
            "a 4\n"
            "b 0\n"
            "b;a 9\n"
            "z 3\n");
}

TEST(FoldedProfile, SubMicrosecondRemaindersTruncateAndNeverGoNegative) {
  // A child reported longer than its parent (clock skew between reads) gives
  // the parent a self time of 0, not a wrapped huge weight.
  std::vector<SpanEvent> events = {span("outer", 5), span("inner", 6, 0)};
  events[1].dur_ns += 999;
  EXPECT_EQ(render_folded(events),
            "outer 0\n"
            "outer;inner 6\n");
}

}  // namespace
}  // namespace ara::obs
