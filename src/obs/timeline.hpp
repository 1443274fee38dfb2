// Hierarchical phase/span timers. An ARA_SPAN at the top of a phase opens
// an interval on the global Timeline; nesting follows scope nesting via an
// explicit open-span stack, so the completed events form a forest
// (lex → parse → sema → lower → local-ARA → IPA-propagate → export, with
// per-procedure children inside the analysis phases). Completed events feed
// the Chrome trace writer (obs/trace.hpp) and the text time report
// (obs/report.hpp).
//
// Like counters, spans are dormant unless obs::set_enabled(true): a
// disabled Span constructor is a single branch and records nothing.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/stats.hpp"

namespace ara::obs {

struct SpanEvent {
  std::string name;
  std::string cat;              // subsystem, e.g. "frontend", "ipa"
  std::uint64_t start_ns = 0;   // relative to the timeline epoch
  std::uint64_t dur_ns = 0;
  std::int32_t parent = -1;     // index into the event vector; -1 = root
  std::uint32_t depth = 0;
  std::uint32_t lane = 0;       // worker lane (Chrome-trace tid = lane + 1)
};

/// The calling thread's lane: 0 for the main pipeline, 1..N for serve
/// workers. Spans opened on this thread carry the lane, so Chrome traces
/// show one horizontal track per worker.
void set_lane(std::uint32_t lane);
[[nodiscard]] std::uint32_t lane();

/// Process-global span recorder. Thread-safe: the event vector and every
/// thread's open-span stack live behind one mutex (begin/end take it
/// anyway), so spans nest within their own lane (worker) while many lanes
/// record concurrently.
class Timeline {
 public:
  static Timeline& instance();

  /// Drops all events and re-bases the epoch at now. Call only when no
  /// spans are open (between pipeline runs).
  void clear();

  /// Opens a span: records the start time, links it under the innermost
  /// open span of this thread, and returns its event index.
  std::uint32_t begin(std::string name, std::string cat);

  /// Closes the span `id` (and, defensively, anything opened after it on
  /// the same thread that was left open).
  void end(std::uint32_t id);

  /// Completed events in begin order (start_ns non-decreasing). Spans still
  /// open are excluded.
  [[nodiscard]] std::vector<SpanEvent> completed() const;

  [[nodiscard]] bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.empty();
  }

 private:
  Timeline();
  [[nodiscard]] std::uint64_t now_ns() const;

  struct Rec {
    SpanEvent ev;
    bool open = true;
  };
  mutable std::mutex mu_;
  std::vector<Rec> events_;
  /// Each thread's open spans, innermost last (indices into events_).
  std::map<std::thread::id, std::vector<std::uint32_t>> threads_;
  std::uint64_t epoch_ns_ = 0;  // steady-clock origin for start_ns
};

/// RAII span: opens on construction when telemetry is enabled, closes on
/// scope exit. Inactive (and free apart from one branch) when disabled.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view cat = "") {
    if (enabled()) {
      id_ = Timeline::instance().begin(std::string(name), std::string(cat));
      active_ = true;
    }
  }
  ~Span() {
    if (active_) Timeline::instance().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_ = 0;
  bool active_ = false;
};

}  // namespace ara::obs

#define ARA_OBS_CONCAT2(a, b) a##b
#define ARA_OBS_CONCAT(a, b) ARA_OBS_CONCAT2(a, b)
/// Opens a scope-long span: ARA_SPAN("sema", "frontend").
#define ARA_SPAN(...) ::ara::obs::Span ARA_OBS_CONCAT(ara_span_, __LINE__){__VA_ARGS__}
