#include "sim/trace.hpp"

#include <cmath>
#include <map>
#include <ostream>

#include "util/expect.hpp"
#include "util/json.hpp"

namespace rr::sim {

TraceRecorder::SpanId TraceRecorder::begin(std::string name, std::string track,
                                           TimePoint start) {
  events_.push_back(Event{std::move(name), std::move(track), start.ps(), -1,
                          Kind::kSpan, 0.0});
  return events_.size() - 1;
}

void TraceRecorder::end(SpanId id, TimePoint finish) {
  RR_EXPECTS(id < events_.size());
  Event& ev = events_[id];
  RR_EXPECTS(ev.kind == Kind::kSpan);
  RR_EXPECTS(ev.end_ps == -1);
  RR_EXPECTS(finish.ps() >= ev.start_ps);
  ev.end_ps = finish.ps();
}

void TraceRecorder::instant(std::string name, std::string track, TimePoint at) {
  events_.push_back(Event{std::move(name), std::move(track), at.ps(), at.ps(),
                          Kind::kInstant, 0.0});
}

void TraceRecorder::counter(std::string name, std::string track, TimePoint at,
                            double value) {
  events_.push_back(Event{std::move(name), std::move(track), at.ps(), at.ps(),
                          Kind::kCounter, value});
}

std::size_t TraceRecorder::open_spans() const {
  std::size_t n = 0;
  for (const Event& ev : events_)
    if (ev.kind == Kind::kSpan && ev.end_ps == -1) ++n;
  return n;
}

std::size_t TraceRecorder::counter_samples() const {
  std::size_t n = 0;
  for (const Event& ev : events_)
    if (ev.kind == Kind::kCounter) ++n;
  return n;
}

double TraceRecorder::last_counter(std::string_view name,
                                   std::string_view track) const {
  for (auto it = events_.rbegin(); it != events_.rend(); ++it)
    if (it->kind == Kind::kCounter && it->name == name && it->track == track)
      return it->value;
  return std::nan("");
}

void TraceRecorder::write_json(std::ostream& os) const {
  // Tracks map to (pid=1, tid=k) with thread_name metadata.  Names and
  // track labels go through the shared util/json escaper so quotes,
  // backslashes, and control characters yield valid Chrome-trace JSON.
  std::map<std::string, int> track_ids;
  for (const Event& ev : events_)
    track_ids.emplace(ev.track, static_cast<int>(track_ids.size()) + 1);

  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [track, tid] : track_ids) {
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    write_json_string(os, track);
    os << "}}";
  }
  for (const Event& ev : events_) {
    const int tid = track_ids.at(ev.track);
    const double start_us = static_cast<double>(ev.start_ps) * 1e-6;
    os << ",";
    switch (ev.kind) {
      case Kind::kInstant:
        os << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << start_us
           << ",\"s\":\"t\",\"name\":";
        write_json_string(os, ev.name);
        os << "}";
        break;
      case Kind::kCounter:
        os << "{\"ph\":\"C\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << start_us
           << ",\"name\":";
        write_json_string(os, ev.name);
        os << ",\"args\":{";
        write_json_string(os, ev.name);
        os << ":" << ev.value << "}}";
        break;
      case Kind::kSpan: {
        const std::int64_t end_ps = ev.end_ps == -1 ? ev.start_ps : ev.end_ps;
        const double dur_us = static_cast<double>(end_ps - ev.start_ps) * 1e-6;
        os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << start_us
           << ",\"dur\":" << dur_us << ",\"name\":";
        write_json_string(os, ev.name);
        os << "}";
        break;
      }
    }
  }
  os << "]}";
}

}  // namespace rr::sim
