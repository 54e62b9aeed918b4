// Span tracing for simulations: records named spans on named tracks and
// exports Chrome trace-event JSON (load it at chrome://tracing or in
// Perfetto) so a CML/Sweep3D run can be inspected visually.
//
// Usage:
//   sim::TraceRecorder trace;
//   auto span = trace.begin("dacs xfer", "node0/cell2", sim.now());
//   ... later ...
//   trace.end(span, sim.now());
//   trace.write_json(os);
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace rr::sim {

class TraceRecorder {
 public:
  using SpanId = std::size_t;

  /// Open a span at simulated time `start` on `track`.
  SpanId begin(std::string name, std::string track, TimePoint start);

  /// Close a span.  Spans may close out of order.
  void end(SpanId id, TimePoint finish);

  /// Record an instantaneous event.
  void instant(std::string name, std::string track, TimePoint at);

  /// Record a counter sample (Chrome "C" event): the value of a named
  /// metric at simulated time `at`.  Used by the Simulator to expose
  /// queue-depth / tombstone / cancelled-run statistics over time.
  void counter(std::string name, std::string track, TimePoint at, double value);

  /// Number of recorded spans + instants + counter samples.
  std::size_t size() const { return events_.size(); }
  /// Number of counter samples recorded (subset of size()).
  std::size_t counter_samples() const;
  /// Last recorded value of counter `name` on `track`, or NaN if none.
  double last_counter(std::string_view name, std::string_view track) const;
  /// Number of spans still open.
  std::size_t open_spans() const;

  /// Chrome trace-event JSON ("traceEvents" array form).  Durations are
  /// emitted in microseconds of simulated time.
  void write_json(std::ostream& os) const;

  void clear() { events_.clear(); }

 private:
  enum class Kind : std::uint8_t {
    kSpan,
    kInstant,
    kCounter,
  };
  struct Event {
    std::string name;
    std::string track;
    std::int64_t start_ps = 0;
    std::int64_t end_ps = -1;  ///< -1: still open; start==end: instant
    Kind kind = Kind::kSpan;
    double value = 0.0;        ///< counter samples only
  };
  std::vector<Event> events_;
};

}  // namespace rr::sim
