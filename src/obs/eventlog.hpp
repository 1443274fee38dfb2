// Per-unit lifecycle events of one batch run. Each translation unit goes
// through a fixed lifecycle —
//
//   queued -> started -> cache_hit | cache_miss -> summarized | failed
//          [-> linked]
//
// — and, when telemetry is on, serve::run_batch returns the events in
// BatchResult::events: ordered by unit, then by stage, so the sequence is
// the same for every --jobs value and repeated run apart from the t_ns
// timestamps and the lane a unit happened to land on.
//
// The JSONL rendering (one event per line, a schema header line first) is
// the `.events.jsonl` artifact documented in docs/FORMATS.md; failed units
// carry the FailureKind string in `detail`, cross-referencing the same
// unit's entry in NAME.failures.json.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ara::obs {

/// Lifecycle stages, in per-unit order. CacheHit/CacheMiss are mutually
/// exclusive, as are Summarized/Failed.
enum class UnitEvent : std::uint8_t {
  Queued = 0,
  Started,
  CacheHit,
  CacheMiss,
  Summarized,
  Failed,
  Linked,
};

[[nodiscard]] std::string_view to_string(UnitEvent e);

struct EventRecord {
  std::uint32_t unit = 0;  // unit index, input order
  std::string unit_name;
  UnitEvent event = UnitEvent::Queued;
  std::uint32_t lane = 0;   // worker lane that recorded it (obs::lane())
  std::uint64_t t_ns = 0;   // since the start of the batch
  std::string detail;       // e.g. the FailureKind string for Failed
};

/// Renders events as JSONL: a header line
/// `{"schema": "ara.events.v1", "run": ..., "events": N}` then one compact
/// JSON object per event (docs/FORMATS.md).
[[nodiscard]] std::string write_events_jsonl(const std::vector<EventRecord>& events,
                                             std::string_view run_name);

}  // namespace ara::obs
