#include "obs/timeline.hpp"

#include <chrono>

namespace ara::obs {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// The worker lane stamped onto events. Lane assignment is per-thread and
// read on every begin().
thread_local std::uint32_t t_lane = 0;

// The timeline installed by TimelineScope (null: the process timeline) and
// the innermost open span, on this thread.
constinit thread_local Timeline* t_timeline = nullptr;
constinit thread_local const Span* t_innermost = nullptr;

}  // namespace

void set_lane(std::uint32_t lane) { t_lane = lane; }
std::uint32_t lane() { return t_lane; }

Timeline::Timeline() : epoch_ns_(steady_ns()) {}

Timeline& Timeline::instance() {
  static Timeline timeline;
  return timeline;
}

Timeline& Timeline::current() { return t_timeline != nullptr ? *t_timeline : instance(); }

void Timeline::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  epoch_ns_ = steady_ns();
}

std::uint32_t Timeline::begin(std::string name, std::string cat, std::int32_t parent,
                              std::uint32_t depth) {
  Rec rec;
  rec.ev.name = std::move(name);
  rec.ev.cat = std::move(cat);
  rec.ev.parent = parent;
  rec.ev.depth = depth;
  rec.ev.lane = t_lane;
  std::lock_guard<std::mutex> lock(mu_);
  rec.ev.start_ns = steady_ns() - epoch_ns_;
  const auto id = static_cast<std::uint32_t>(events_.size());
  events_.push_back(std::move(rec));
  return id;
}

void Timeline::end(std::uint32_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= events_.size() || !events_[id].open) return;
  Rec& rec = events_[id];
  rec.open = false;
  rec.ev.dur_ns = steady_ns() - epoch_ns_ - rec.ev.start_ns;
}

std::vector<SpanEvent> Timeline::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Open spans are excluded, so parent indices must be remapped into the
  // filtered vector (re-linking to the nearest completed ancestor).
  std::vector<std::int32_t> remap(events_.size(), -1);
  std::vector<SpanEvent> out;
  out.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Rec& rec = events_[i];
    if (rec.open) continue;
    SpanEvent ev = rec.ev;
    std::int32_t parent = ev.parent;
    while (parent >= 0 && remap[static_cast<std::size_t>(parent)] < 0) {
      parent = events_[static_cast<std::size_t>(parent)].ev.parent;
    }
    ev.parent = parent >= 0 ? remap[static_cast<std::size_t>(parent)] : -1;
    remap[i] = static_cast<std::int32_t>(out.size());
    out.push_back(std::move(ev));
  }
  return out;
}

TimelineScope::TimelineScope(Timeline& timeline) : saved_(t_timeline) {
  t_timeline = &timeline;
}

TimelineScope::~TimelineScope() { t_timeline = saved_; }

void Span::open(std::string_view name, std::string_view cat) {
  timeline_ = &Timeline::current();
  outer_ = t_innermost;
  // The parent is the innermost open span of this thread in the same
  // timeline: a span opened under a newly installed timeline is a root.
  const Span* parent = outer_;
  while (parent != nullptr && parent->timeline_ != timeline_) parent = parent->outer_;
  depth_ = parent != nullptr ? parent->depth_ + 1 : 0;
  id_ = timeline_->begin(std::string(name), std::string(cat),
                         parent != nullptr ? static_cast<std::int32_t>(parent->id_) : -1,
                         depth_);
  t_innermost = this;
}

void Span::close() {
  timeline_->end(id_);
  t_innermost = outer_;
}

}  // namespace ara::obs
