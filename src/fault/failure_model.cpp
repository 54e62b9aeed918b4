#include "fault/failure_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"
#include "util/rng.hpp"

namespace rr::fault {

namespace {

constexpr double kSecondsPerHour = 3600.0;

/// Weibull scale for a target mean: mean = scale * Gamma(1 + 1/shape).
double weibull_scale_h(double mtbf_h, double shape) {
  return mtbf_h / std::tgamma(1.0 + 1.0 / shape);
}

/// One draw of a Weibull(shape, scale) inter-arrival, in hours.
double draw_interarrival_h(Rng& rng, double scale_h, double shape) {
  const double u = rng.next_double();  // [0, 1)
  return scale_h * std::pow(-std::log1p(-u), 1.0 / shape);
}

/// Independent per-component stream: mixes (seed, kind, index) through
/// SplitMix64 so streams never collide or depend on generation order.
Rng component_rng(std::uint64_t seed, Component kind, int index) {
  std::uint64_t s = seed;
  std::uint64_t h = splitmix64(s);
  s = h ^ (static_cast<std::uint64_t>(kind) << 32) ^
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(index));
  h = splitmix64(s);
  return Rng{h};
}

/// The system-level stream: one SplitMix64 step from the seed.
Rng system_rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  return Rng{splitmix64(s)};
}

void append_component_failures(std::vector<FailureEvent>& out,
                               Component kind, int index, double mtbf_h,
                               double shape, double horizon_h,
                               std::uint64_t seed) {
  RR_EXPECTS(mtbf_h > 0.0);
  Rng rng = component_rng(seed, kind, index);
  const double scale_h = weibull_scale_h(mtbf_h, shape);
  double t_h = 0.0;
  while (true) {
    t_h += draw_interarrival_h(rng, scale_h, shape);
    if (t_h >= horizon_h) break;
    out.push_back(FailureEvent{
        Duration::seconds(t_h * kSecondsPerHour), kind, index});
  }
}

}  // namespace

const char* component_name(Component c) {
  switch (c) {
    case Component::kNode: return "triblade node";
    case Component::kIbLink: return "IB cable";
    case Component::kCrossbar: return "crossbar";
    case Component::kInterCuSwitch: return "inter-CU switch";
  }
  return "?";
}

ComponentCounts census(const topo::Topology& t) {
  ComponentCounts c;
  c.nodes = t.node_count();
  // Switch-chassis members (the fat tree's inter-CU L1/mid/L3 crossbars)
  // fail with their chassis; everything else fails individually.
  c.switches = t.switch_count();
  int in_switches = 0;
  for (int sw = 0; sw < t.switch_count(); ++sw)
    in_switches += static_cast<int>(t.switch_members(sw).size());
  c.crossbars = t.crossbar_count() - in_switches;
  c.links = static_cast<int>(cable_list(t).size());
  return c;
}

ComponentCounts census_for_nodes(const topo::Topology& full, int nodes) {
  RR_EXPECTS(nodes >= 1 && nodes <= full.node_count());
  const ComponentCounts whole = census(full);
  const double share =
      static_cast<double>(nodes) / static_cast<double>(full.node_count());
  // A class the machine does not have (e.g. switch chassis on a torus)
  // stays empty; any populated class keeps at least one member.
  const auto scaled = [share](int count) {
    if (count == 0) return 0;
    return std::max(1, static_cast<int>(std::ceil(count * share)));
  };
  ComponentCounts c;
  c.nodes = nodes;
  c.links = scaled(whole.links);
  c.crossbars = scaled(whole.crossbars);
  c.switches = scaled(whole.switches);
  return c;
}

std::vector<std::pair<int, int>> cable_list(const topo::Topology& t) {
  std::vector<std::pair<int, int>> cables;
  for (int a = 0; a < t.crossbar_count(); ++a)
    for (int b : t.crossbar(a).links)
      if (a < b) cables.emplace_back(a, b);
  std::sort(cables.begin(), cables.end());
  return cables;
}

double system_mtbf_h(const ComponentCounts& counts, const ReliabilityParams& p) {
  RR_EXPECTS(p.node_mtbf_h > 0 && p.link_mtbf_h > 0);
  RR_EXPECTS(p.crossbar_mtbf_h > 0 && p.switch_mtbf_h > 0);
  const double rate = counts.nodes / p.node_mtbf_h +
                      counts.links / p.link_mtbf_h +
                      counts.crossbars / p.crossbar_mtbf_h +
                      counts.switches / p.switch_mtbf_h;
  RR_EXPECTS(rate > 0.0);
  return 1.0 / rate;
}

std::vector<FailureEvent> generate_schedule(const ComponentCounts& counts,
                                            const ReliabilityParams& p,
                                            Duration horizon,
                                            std::uint64_t seed) {
  RR_EXPECTS(horizon > Duration::zero());
  RR_EXPECTS(p.weibull_shape > 0.0);
  const double horizon_h = horizon.sec() / kSecondsPerHour;
  std::vector<FailureEvent> events;
  for (int i = 0; i < counts.nodes; ++i)
    append_component_failures(events, Component::kNode, i, p.node_mtbf_h,
                              p.weibull_shape, horizon_h, seed);
  for (int i = 0; i < counts.links; ++i)
    append_component_failures(events, Component::kIbLink, i, p.link_mtbf_h,
                              p.weibull_shape, horizon_h, seed);
  for (int i = 0; i < counts.crossbars; ++i)
    append_component_failures(events, Component::kCrossbar, i, p.crossbar_mtbf_h,
                              p.weibull_shape, horizon_h, seed);
  for (int i = 0; i < counts.switches; ++i)
    append_component_failures(events, Component::kInterCuSwitch, i,
                              p.switch_mtbf_h, p.weibull_shape, horizon_h, seed);
  std::sort(events.begin(), events.end());
  return events;
}

SystemFailureStream::SystemFailureStream(double mtbf_h, Duration horizon,
                                         std::uint64_t seed)
    : rng_(system_rng(seed)),
      mtbf_h_(mtbf_h),
      horizon_h_(horizon.sec() / kSecondsPerHour) {
  RR_EXPECTS(mtbf_h > 0.0);
  RR_EXPECTS(horizon > Duration::zero());
}

std::optional<Duration> SystemFailureStream::next() {
  t_h_ += draw_interarrival_h(rng_, mtbf_h_, 1.0);
  if (t_h_ >= horizon_h_) return std::nullopt;
  return Duration::seconds(t_h_ * kSecondsPerHour);
}

std::vector<Duration> generate_system_schedule(double mtbf_h, Duration horizon,
                                               std::uint64_t seed) {
  SystemFailureStream stream(mtbf_h, horizon, seed);
  std::vector<Duration> out;
  while (const std::optional<Duration> at = stream.next()) out.push_back(*at);
  return out;
}

Scenario& Scenario::fail_node(Duration at, int node) {
  events_.push_back(FailureEvent{at, Component::kNode, node});
  return *this;
}
Scenario& Scenario::fail_link(Duration at, int cable_index) {
  events_.push_back(FailureEvent{at, Component::kIbLink, cable_index});
  return *this;
}
Scenario& Scenario::fail_crossbar(Duration at, int xbar_id) {
  events_.push_back(FailureEvent{at, Component::kCrossbar, xbar_id});
  return *this;
}
Scenario& Scenario::fail_inter_cu_switch(Duration at, int sw) {
  events_.push_back(FailureEvent{at, Component::kInterCuSwitch, sw});
  return *this;
}
std::vector<FailureEvent> Scenario::build() const {
  std::vector<FailureEvent> sorted = events_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace rr::fault
