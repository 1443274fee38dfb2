#include "obs/eventlog.hpp"

#include <sstream>

#include "support/json.hpp"

namespace ara::obs {

std::string_view to_string(UnitEvent e) {
  switch (e) {
    case UnitEvent::Queued: return "queued";
    case UnitEvent::Started: return "started";
    case UnitEvent::CacheHit: return "cache_hit";
    case UnitEvent::CacheMiss: return "cache_miss";
    case UnitEvent::Summarized: return "summarized";
    case UnitEvent::Failed: return "failed";
    case UnitEvent::Linked: return "linked";
  }
  return "unknown";
}

std::string write_events_jsonl(const std::vector<EventRecord>& events,
                               std::string_view run_name) {
  std::ostringstream os;
  os << "{\"schema\": \"ara.events.v1\", \"run\": \"" << json::escape(run_name)
     << "\", \"events\": " << events.size() << "}\n";
  for (const EventRecord& e : events) {
    os << "{\"unit\": " << e.unit << ", \"name\": \"" << json::escape(e.unit_name)
       << "\", \"event\": \"" << to_string(e.event) << "\", \"lane\": " << e.lane
       << ", \"t_ns\": " << e.t_ns;
    if (!e.detail.empty()) os << ", \"detail\": \"" << json::escape(e.detail) << "\"";
    os << "}\n";
  }
  return os.str();
}

}  // namespace ara::obs
