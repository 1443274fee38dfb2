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

}  // namespace

void set_lane(std::uint32_t lane) { t_lane = lane; }
std::uint32_t lane() { return t_lane; }

Timeline::Timeline() : epoch_ns_(steady_ns()) {}

Timeline& Timeline::instance() {
  static Timeline timeline;
  return timeline;
}

std::uint64_t Timeline::now_ns() const { return steady_ns() - epoch_ns_; }

void Timeline::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  threads_.clear();
  epoch_ns_ = steady_ns();
}

std::uint32_t Timeline::begin(std::string name, std::string cat) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint32_t>& stack = threads_[std::this_thread::get_id()];
  Rec rec;
  rec.ev.name = std::move(name);
  rec.ev.cat = std::move(cat);
  rec.ev.start_ns = now_ns();
  rec.ev.parent = stack.empty() ? -1 : static_cast<std::int32_t>(stack.back());
  rec.ev.depth = static_cast<std::uint32_t>(stack.size());
  rec.ev.lane = t_lane;
  const auto id = static_cast<std::uint32_t>(events_.size());
  events_.push_back(std::move(rec));
  stack.push_back(id);
  return id;
}

void Timeline::end(std::uint32_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= events_.size() || !events_[id].open) return;
  const std::uint64_t t = now_ns();
  // Close any inner spans leaked past their opener (shouldn't happen with
  // RAII, but keeps the hierarchy consistent if it does). Only this
  // thread's stack is touched; other lanes' open spans are unaffected.
  auto it = threads_.find(std::this_thread::get_id());
  if (it == threads_.end()) return;
  std::vector<std::uint32_t>& stack = it->second;
  while (!stack.empty()) {
    const std::uint32_t top = stack.back();
    stack.pop_back();
    Rec& rec = events_[top];
    rec.open = false;
    rec.ev.dur_ns = t - rec.ev.start_ns;
    if (top == id) break;
  }
  if (stack.empty()) threads_.erase(it);
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

}  // namespace ara::obs
