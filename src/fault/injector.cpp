#include "fault/injector.hpp"

#include <algorithm>
#include <cstddef>

#include "fault/checkpoint_policy.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace rr::fault {

void apply_to_fabric(topo::DegradedTopology& fabric, const FailureEvent& ev,
                     const std::vector<std::pair<int, int>>& cables) {
  switch (ev.component) {
    case Component::kNode:
      fabric.fail_node(topo::NodeId{ev.index});
      break;
    case Component::kIbLink: {
      RR_EXPECTS(ev.index >= 0 &&
                 ev.index < static_cast<int>(cables.size()));
      const auto [a, b] = cables[ev.index];
      fabric.fail_link(a, b);
      break;
    }
    case Component::kCrossbar:
      fabric.fail_crossbar(ev.index);
      break;
    case Component::kInterCuSwitch:
      fabric.fail_inter_cu_switch(ev.index);
      break;
  }
}

namespace {

/// The DES replay of sim::InterruptibleProcess under failures scheduled up
/// front, as a renewal walk in integer picoseconds.  `next_failure()`
/// yields failure times in nondecreasing order, then Duration::max() once
/// there are none; the walk stops drawing at the first failure past
/// completion.  Ties keep the DES order: the failures are scheduled after
/// the first segment's end and before every later event, so the first
/// segment's end beats a failure at the same instant and every later
/// segment or restart end loses to one.
template <class NextFailure>
sim::RestartStats renewal_walk(const sim::RestartPlan& plan,
                               NextFailure next_failure) {
  RR_EXPECTS(plan.work > Duration::zero());
  RR_EXPECTS(plan.interval > Duration::zero());
  RR_EXPECTS(plan.checkpoint >= Duration::zero());
  RR_EXPECTS(plan.restart >= Duration::zero());
  sim::RestartStats stats;
  Duration now = Duration::zero();
  Duration committed = Duration::zero();
  Duration failure = next_failure();
  bool first_segment = true;
  while (committed < plan.work) {
    const Duration remaining = plan.work - committed;
    const Duration seg = remaining < plan.interval ? remaining : plan.interval;
    const Duration end = now + seg + plan.checkpoint;
    if (failure < end || (failure == end && !first_segment)) {
      // Discard the segment and reboot; a failure before the reboot ends
      // (or as it ends) pays the full restart again from that failure.
      ++stats.failures;
      stats.lost_work += failure - now;
      now = failure;
      for (failure = next_failure(); failure <= now + plan.restart;
           failure = next_failure()) {
        ++stats.failures;
        stats.restart_time += failure - now;
        now = failure;
      }
      stats.restart_time += plan.restart;
      now += plan.restart;
    } else {
      committed += seg;
      ++stats.checkpoints;
      stats.checkpoint_time += plan.checkpoint;
      now = end;
    }
    first_segment = false;
  }
  stats.makespan = now;
  stats.completed = true;
  // Every picosecond is useful work, a checkpoint write, discarded
  // segment time or rebooting.
  RR_ENSURES(committed == plan.work &&
             stats.makespan == plan.work + stats.checkpoint_time +
                                   stats.lost_work + stats.restart_time);
  return stats;
}

}  // namespace

sim::RestartStats run_interrupted(const sim::RestartPlan& plan,
                                  const std::vector<Duration>& failures) {
  // The DES fires failures in time order whatever order they come in.
  std::vector<Duration> sorted = failures;
  std::sort(sorted.begin(), sorted.end());
  RR_EXPECTS(sorted.empty() || sorted.front() >= Duration::zero());
  std::size_t next = 0;
  return renewal_walk(plan, [&] {
    return next < sorted.size() ? sorted[next++] : Duration::max();
  });
}

MonteCarloResult expected_interrupted_makespan(const sim::RestartPlan& plan,
                                               double mtbf_h,
                                               int replications,
                                               std::uint64_t seed) {
  RR_EXPECTS(replications >= 1);
  // Failures beyond this horizon are not generated; a sufficiently
  // unlucky replication then finishes failure-free past it.  Ten times
  // the analytic expectation makes that bias negligible.
  const double expected_s = expected_makespan_s(
      plan.work.sec(), plan.interval.sec(), plan.checkpoint.sec(),
      plan.restart.sec(), mtbf_h * 3600.0);
  const Duration horizon = Duration::seconds(expected_s * 10.0 + 1.0);

  MonteCarloResult mc;
  mc.replications = replications;
  double makespan_sum = 0.0, failure_sum = 0.0;
  for (int r = 0; r < replications; ++r) {
    std::uint64_t s = seed + static_cast<std::uint64_t>(r);
    SystemFailureStream failures(mtbf_h, horizon, splitmix64(s));
    const sim::RestartStats stats = renewal_walk(
        plan, [&failures] { return failures.next().value_or(Duration::max()); });
    makespan_sum += stats.makespan.sec();
    failure_sum += stats.failures;
  }
  mc.mean_makespan_s = makespan_sum / replications;
  mc.mean_failures = failure_sum / replications;
  return mc;
}

}  // namespace rr::fault
