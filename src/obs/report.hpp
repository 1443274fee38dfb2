// Human-readable rendering of the telemetry: a hierarchical phase time
// report (spans aggregated by name under their parent, so 50 per-procedure
// children collapse into one "proc <name>"-count row group), the same
// grouping as a folded profile, and a counter table. The tables render
// through support/text_table, the same widget console Dragon uses for its
// region tables.
#pragma once

#include <string>
#include <vector>

#include "obs/stats.hpp"
#include "obs/timeline.hpp"

namespace ara::obs {

/// Hierarchical time report over completed span events. Sibling spans with
/// the same name are merged (count column); rows are ordered by first
/// appearance, children indented under their parent. Percentages are of the
/// total root time.
[[nodiscard]] std::string render_time_report(const std::vector<SpanEvent>& events);

/// The same grouping as a collapsed-stack profile (`arac --profile`): one
/// `root;child;leaf weight` line per span path, sorted bytewise, where the
/// weight is the path's self time in whole microseconds. flamegraph.pl and
/// speedscope read it directly.
[[nodiscard]] std::string render_folded(const std::vector<SpanEvent>& events);

/// Counter table (name-sorted). With `nonzero_only`, untouched counters are
/// omitted.
[[nodiscard]] std::string render_stats_table(bool nonzero_only = true);

}  // namespace ara::obs
