// Hierarchical phase/span timers. An ARA_SPAN at the top of a phase opens
// an interval on the calling thread's timeline; nesting follows scope
// nesting through the thread's stack of open spans, so the completed events
// form a forest (lex → parse → sema → lower → local-ARA → IPA-propagate →
// export, with per-procedure children inside the analysis phases).
// Completed events feed the Chrome trace writer (obs/trace.hpp) and the
// text time report (obs/report.hpp).
//
// A span records into the timeline installed on its thread (TimelineScope),
// or into the process timeline, Timeline::instance(), when none is: `arac`
// and library callers use the process timeline, and `arad` installs a
// timeline of its own for each request and drops it after the reply.
//
// Like counters, spans are dormant unless obs::set_enabled(true): a
// disabled Span constructor is a single branch and records nothing.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
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

/// A span recorder. Thread-safe: its mutex guards only the event vector;
/// each thread keeps its own open spans (see Span), so spans nest within
/// their own lane while many lanes record into one timeline concurrently.
class Timeline {
 public:
  /// An empty timeline whose epoch is now, for one request or run.
  Timeline();
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  /// The process timeline: where spans go on a thread with none installed.
  static Timeline& instance();

  /// The timeline installed on the calling thread, else instance().
  static Timeline& current();

  /// Drops all events and re-bases the epoch at now. Call only when no
  /// spans are open (between pipeline runs).
  void clear();

  /// Completed events in begin order (start_ns non-decreasing). Spans still
  /// open are excluded.
  [[nodiscard]] std::vector<SpanEvent> completed() const;

  [[nodiscard]] bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.empty();
  }

 private:
  friend class Span;
  /// Records an open span under `parent` (-1 = root); returns its index.
  std::uint32_t begin(std::string name, std::string cat, std::int32_t parent,
                      std::uint32_t depth);
  void end(std::uint32_t id);

  struct Rec {
    SpanEvent ev;
    bool open = true;
  };
  mutable std::mutex mu_;
  std::vector<Rec> events_;
  std::uint64_t epoch_ns_ = 0;  // steady-clock origin for start_ns
};

/// RAII: installs `timeline` on the calling thread, so spans opened here go
/// to it; the previous one is restored on destruction. Costs two
/// thread-local stores.
class TimelineScope {
 public:
  explicit TimelineScope(Timeline& timeline);
  ~TimelineScope();
  TimelineScope(const TimelineScope&) = delete;
  TimelineScope& operator=(const TimelineScope&) = delete;

 private:
  Timeline* saved_;
};

/// RAII span: opens on construction when telemetry is enabled, closes on
/// scope exit. Inactive (and free apart from one branch) when disabled.
/// Open spans form the thread's stack (innermost in thread-local storage,
/// each linking to the one it opened inside), which is how a span finds its
/// parent without a lock.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view cat = "") {
    if (enabled()) open(name, cat);
  }
  ~Span() {
    if (timeline_ != nullptr) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(std::string_view name, std::string_view cat);
  void close();

  Timeline* timeline_ = nullptr;  // set while open
  const Span* outer_ = nullptr;   // the thread's innermost open span before this one
  std::uint32_t id_ = 0;
  std::uint32_t depth_ = 0;
};

}  // namespace ara::obs

#define ARA_OBS_CONCAT2(a, b) a##b
#define ARA_OBS_CONCAT(a, b) ARA_OBS_CONCAT2(a, b)
/// Opens a scope-long span: ARA_SPAN("sema", "frontend").
#define ARA_SPAN(...) ::ara::obs::Span ARA_OBS_CONCAT(ara_span_, __LINE__){__VA_ARGS__}
