#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <set>
#include <vector>

#include "topo/fat_tree.hpp"
#include "arch/spec.hpp"
#include "comm/reliable.hpp"
#include "fault/checkpoint_policy.hpp"
#include "fault/failure_model.hpp"
#include "fault/injector.hpp"
#include "fault/resilience_study.hpp"
#include "fault/taxonomy.hpp"
#include "io/io_model.hpp"
#include "sim/interrupt.hpp"
#include "topo/degraded.hpp"
#include "util/rng.hpp"

namespace rr::fault {
namespace {

const topo::FatTree& full_topo() {
  static const topo::FatTree t = topo::FatTree::roadrunner();
  return t;
}

// ---------------------------------------------------------------------------
// Failure schedules
// ---------------------------------------------------------------------------

TEST(Census, FullMachineComponentCounts) {
  const ComponentCounts c = census(full_topo());
  EXPECT_EQ(c.nodes, 3060);
  EXPECT_EQ(c.crossbars, 17 * 36);  // CU-level only
  EXPECT_EQ(c.switches, 8);
  // 17 CUs x (24x12 intra-CU + 24x4 uplinks) + 8 switches x 2x12x12.
  EXPECT_EQ(c.links, 17 * (24 * 12 + 24 * 4) + 8 * 2 * 12 * 12);
}

TEST(Census, CuLevelCrossbarsOccupyTheLowIds) {
  // apply_to_fabric maps kCrossbar indices straight to crossbar ids; that
  // only works because the id layout puts all 36*17 CU crossbars first.
  const topo::FatTree& t = full_topo();
  const int cu_level = census(t).crossbars;
  for (int id : {0, 1, cu_level - 1}) {
    const auto kind = t.crossbar(id).kind;
    EXPECT_TRUE(kind == topo::XbarKind::kCuLower ||
                kind == topo::XbarKind::kCuUpper);
  }
  EXPECT_EQ(t.crossbar(cu_level).kind, topo::XbarKind::kInterCuL1);
}

TEST(FailureSchedule, SameSeedIsBitwiseIdentical) {
  const ComponentCounts c{64, 128, 36, 2};
  const ReliabilityParams p{100.0, 400.0, 800.0, 300.0, 1.0};
  const Duration horizon = Duration::seconds(500 * 3600.0);
  const auto a = generate_schedule(c, p, horizon, 42);
  const auto b = generate_schedule(c, p, horizon, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
  const auto other = generate_schedule(c, p, horizon, 43);
  EXPECT_NE(a, other);
}

TEST(FailureSchedule, LongerHorizonOnlyAppends) {
  // Per-component sub-seeded streams: extending the horizon must not
  // reshuffle the earlier events.
  const ComponentCounts c{16, 0, 8, 1};
  const ReliabilityParams p{50.0, 100.0, 100.0, 75.0, 1.0};
  const auto shorter =
      generate_schedule(c, p, Duration::seconds(100 * 3600.0), 7);
  auto longer = generate_schedule(c, p, Duration::seconds(200 * 3600.0), 7);
  longer.erase(std::remove_if(longer.begin(), longer.end(),
                              [](const FailureEvent& e) {
                                return e.at >= Duration::seconds(100 * 3600.0);
                              }),
               longer.end());
  EXPECT_EQ(shorter, longer);
}

TEST(FailureSchedule, ExponentialInterarrivalMeanMatchesMtbf) {
  ComponentCounts c;
  c.nodes = 1;
  ReliabilityParams p;
  p.node_mtbf_h = 1.0;
  const auto events =
      generate_schedule(c, p, Duration::seconds(2000 * 3600.0), 99);
  ASSERT_GT(events.size(), 1000u);
  const double mean_h = 2000.0 / static_cast<double>(events.size());
  EXPECT_NEAR(mean_h, 1.0, 0.1);
}

TEST(FailureSchedule, SortedAndWithinHorizon) {
  const ComponentCounts c{32, 64, 16, 4};
  ReliabilityParams p{10.0, 20.0, 20.0, 15.0, 1.4};  // wear-out Weibull
  const Duration horizon = Duration::seconds(100 * 3600.0);
  const auto events = generate_schedule(c, p, horizon, 5);
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_LT(events[i].at, horizon);
    EXPECT_GE(events[i].at, Duration::zero());
    if (i > 0) {
      EXPECT_LE(events[i - 1].at, events[i].at);
    }
  }
}

TEST(FailureSchedule, SystemScheduleMatchesAggregateRate) {
  const auto events =
      generate_system_schedule(2.0, Duration::seconds(2000 * 3600.0), 11);
  const double mean_h = 2000.0 / static_cast<double>(events.size());
  EXPECT_NEAR(mean_h, 2.0, 0.2);
}

// The system-level draw written out independently of failure_model.cpp:
// SplitMix64-seeded xoshiro, exponential inter-arrivals in hours, times
// rounded onto the picosecond grid, nothing at or past the horizon.
std::vector<Duration> reference_system_schedule(double mtbf_h,
                                                Duration horizon,
                                                std::uint64_t seed) {
  std::uint64_t s = seed;
  Rng rng{splitmix64(s)};
  std::vector<Duration> out;
  for (double t_h = 0.0;;) {
    t_h += mtbf_h * -std::log1p(-rng.next_double());
    if (t_h >= horizon.sec() / 3600.0) return out;
    out.push_back(Duration::seconds(t_h * 3600.0));
  }
}

TEST(FailureSchedule, LazyStreamYieldsExactlyTheSystemSchedule) {
  for (const double horizon_h : {3.0, 400.0}) {
    const Duration horizon = Duration::seconds(horizon_h * 3600.0);
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const std::vector<Duration> schedule =
          generate_system_schedule(1.5, horizon, seed);
      ASSERT_EQ(schedule, reference_system_schedule(1.5, horizon, seed))
          << "seed " << seed;
      SystemFailureStream stream(1.5, horizon, seed);
      for (const Duration at : schedule)
        ASSERT_EQ(stream.next(), std::optional<Duration>{at}) << "seed " << seed;
      // Exhausted at the horizon, and it stays exhausted.
      EXPECT_EQ(stream.next(), std::nullopt) << "seed " << seed;
      EXPECT_EQ(stream.next(), std::nullopt) << "seed " << seed;
    }
  }
}

TEST(SystemMtbf, HarmonicAggregation) {
  ComponentCounts c;
  c.nodes = 100;
  ReliabilityParams p;
  p.node_mtbf_h = 1000.0;
  // Only nodes present: 100 components at 1000 h => 10 h fleet MTBF.
  EXPECT_NEAR(system_mtbf_h(c, p), 10.0, 1e-12);
  c.switches = 10;
  p.switch_mtbf_h = 100.0;
  // Add 10 switches at 100 h: rate 0.1 + 0.1 => 5 h.
  EXPECT_NEAR(system_mtbf_h(c, p), 5.0, 1e-12);
}

TEST(Scenario, BuildsSortedScript) {
  Scenario s;
  s.fail_inter_cu_switch(Duration::seconds(30), 3)
      .fail_node(Duration::seconds(10), 1234)
      .fail_crossbar(Duration::seconds(20), 17);
  const auto events = s.build();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].component, Component::kNode);
  EXPECT_EQ(events[1].component, Component::kCrossbar);
  EXPECT_EQ(events[2].component, Component::kInterCuSwitch);
}

// ---------------------------------------------------------------------------
// Young/Daly checkpoint policy
// ---------------------------------------------------------------------------

TEST(CheckpointPolicy, YoungInterval) {
  EXPECT_NEAR(young_interval_s(200.0, 40000.0), std::sqrt(2 * 200.0 * 40000.0),
              1e-9);
}

TEST(CheckpointPolicy, DalyRefinesYoung) {
  const double c = 200.0, m = 40000.0;
  const double young = young_interval_s(c, m);
  const double daly = daly_interval_s(c, m);
  // Daly's correction is small for C << M and below Young's value.
  EXPECT_LT(daly, young);
  EXPECT_GT(daly, 0.5 * young);
}

TEST(CheckpointPolicy, OptimalIntervalMinimizesExpectedMakespan) {
  const double w = 10000.0, c = 100.0, r = 300.0, m = 5000.0;
  const double tau = daly_interval_s(c, m);
  const double at_opt = expected_makespan_s(w, tau, c, r, m);
  for (const double factor : {0.25, 0.5, 2.0, 4.0}) {
    EXPECT_LE(at_opt, expected_makespan_s(w, tau * factor, c, r, m))
        << "factor " << factor;
  }
}

TEST(CheckpointPolicy, NoFailureLimitIsPureCheckpointOverhead) {
  // M -> infinity: T -> W (1 + C/tau).
  const double t = expected_makespan_s(1000.0, 100.0, 10.0, 60.0, 1e12);
  EXPECT_NEAR(t, 1000.0 * (1.0 + 10.0 / 100.0), 1e-3);
}

// ---------------------------------------------------------------------------
// Interruptible process on the DES
// ---------------------------------------------------------------------------

TEST(InterruptibleProcess, FaultFreeRunPaysOneCheckpointPerSegment) {
  sim::Simulator sim;
  const sim::RestartPlan plan{Duration::seconds(100), Duration::seconds(30),
                              Duration::seconds(5), Duration::seconds(10)};
  sim::InterruptibleProcess proc(sim, plan);
  proc.start();
  sim.run();
  ASSERT_TRUE(proc.done());
  // Segments 30+30+30+10, each +5 checkpoint.
  EXPECT_EQ(proc.stats().makespan.ps(), Duration::seconds(120).ps());
  EXPECT_EQ(proc.stats().checkpoints, 4);
  EXPECT_EQ(proc.stats().failures, 0);
}

TEST(InterruptibleProcess, MidSegmentFaultRollsBackToLastCheckpoint) {
  sim::Simulator sim;
  const sim::RestartPlan plan{Duration::seconds(100), Duration::seconds(30),
                              Duration::seconds(5), Duration::seconds(10)};
  sim::InterruptibleProcess proc(sim, plan);
  proc.start();
  sim.schedule_at(TimePoint::origin() + Duration::seconds(50),
                  [&proc] { proc.interrupt(); });
  sim.run();
  ASSERT_TRUE(proc.done());
  // Segment 2 (35..70) dies at 50: 15 s lost, 10 s restart, then the
  // remaining 70 s of work + 3 checkpoints replay cleanly.
  EXPECT_EQ(proc.stats().makespan.ps(), Duration::seconds(145).ps());
  EXPECT_EQ(proc.stats().failures, 1);
  EXPECT_EQ(proc.stats().lost_work.ps(), Duration::seconds(15).ps());
  EXPECT_EQ(proc.stats().restart_time.ps(), Duration::seconds(10).ps());
  EXPECT_EQ(proc.stats().checkpoints, 4);
}

TEST(InterruptibleProcess, FaultDuringRestartRestartsTheRestart) {
  sim::Simulator sim;
  const sim::RestartPlan plan{Duration::seconds(100), Duration::seconds(30),
                              Duration::seconds(5), Duration::seconds(10)};
  sim::InterruptibleProcess proc(sim, plan);
  proc.start();
  for (const double at : {50.0, 55.0})
    sim.schedule_at(TimePoint::origin() + Duration::seconds(at),
                    [&proc] { proc.interrupt(); });
  sim.run();
  ASSERT_TRUE(proc.done());
  // Fault at 50 (15 s into segment 2), second fault at 55 mid-reboot:
  // reboot restarts and completes at 65; remaining 70 s work + 3
  // checkpoints => 65 + 85 = 150.
  EXPECT_EQ(proc.stats().makespan.ps(), Duration::seconds(150).ps());
  EXPECT_EQ(proc.stats().failures, 2);
  EXPECT_EQ(proc.stats().lost_work.ps(), Duration::seconds(15).ps());
  EXPECT_EQ(proc.stats().restart_time.ps(), Duration::seconds(15).ps());
}

TEST(InterruptibleProcess, FaultsAfterCompletionAreIgnored) {
  sim::Simulator sim;
  const sim::RestartPlan plan{Duration::seconds(10), Duration::seconds(10),
                              Duration::seconds(1), Duration::seconds(5)};
  sim::InterruptibleProcess proc(sim, plan);
  proc.start();
  sim.schedule_at(TimePoint::origin() + Duration::seconds(500),
                  [&proc] { proc.interrupt(); });
  sim.run();
  EXPECT_TRUE(proc.done());
  EXPECT_EQ(proc.stats().failures, 0);
  EXPECT_EQ(proc.stats().makespan.ps(), Duration::seconds(11).ps());
}

TEST(MonteCarlo, DesMeanMatchesYoungDalyAnalytic) {
  // Enough failures per run (W/M = 2) for the mean over 1,500 seeds to sit
  // on the closed form.
  const double w = 10000.0, c = 100.0, r = 300.0, m = 5000.0;
  const double tau = daly_interval_s(c, m);
  const sim::RestartPlan plan{Duration::seconds(w), Duration::seconds(tau),
                              Duration::seconds(c), Duration::seconds(r)};
  const MonteCarloResult mc =
      expected_interrupted_makespan(plan, m / 3600.0, 1500, 2024);
  const double analytic = expected_makespan_s(w, tau, c, r, m);
  EXPECT_NEAR(mc.mean_makespan_s / analytic, 1.0, 0.03);
  EXPECT_GT(mc.mean_failures, 1.0);
}

TEST(MonteCarlo, DeterministicForAGivenSeed) {
  const sim::RestartPlan plan{Duration::seconds(5000), Duration::seconds(800),
                              Duration::seconds(50), Duration::seconds(200)};
  const MonteCarloResult a = expected_interrupted_makespan(plan, 1.5, 200, 9);
  const MonteCarloResult b = expected_interrupted_makespan(plan, 1.5, 200, 9);
  EXPECT_EQ(a.mean_makespan_s, b.mean_makespan_s);
  EXPECT_EQ(a.mean_failures, b.mean_failures);
}

// ---------------------------------------------------------------------------
// Renewal walk vs. the DES oracle
// ---------------------------------------------------------------------------

/// The DES replay that run_interrupted reproduces: the process starts
/// first, then every failure is scheduled.
sim::RestartStats des_replay(const sim::RestartPlan& plan,
                             const std::vector<Duration>& failures) {
  sim::Simulator sim;
  sim::InterruptibleProcess proc(sim, plan);
  proc.start();
  for (const Duration& at : failures)
    sim.schedule_at(TimePoint::origin() + at, [&proc] { proc.interrupt(); });
  sim.run();
  EXPECT_TRUE(proc.done());
  return proc.stats();
}

::testing::AssertionResult same_stats(const sim::RestartStats& walk,
                                      const sim::RestartStats& des) {
  const auto field = [](const char* name, std::int64_t w, std::int64_t d) {
    return ::testing::AssertionFailure()
           << name << ": walk " << w << " vs DES " << d;
  };
  if (walk.makespan != des.makespan)
    return field("makespan ps", walk.makespan.ps(), des.makespan.ps());
  if (walk.lost_work != des.lost_work)
    return field("lost_work ps", walk.lost_work.ps(), des.lost_work.ps());
  if (walk.checkpoint_time != des.checkpoint_time)
    return field("checkpoint_time ps", walk.checkpoint_time.ps(),
                 des.checkpoint_time.ps());
  if (walk.restart_time != des.restart_time)
    return field("restart_time ps", walk.restart_time.ps(),
                 des.restart_time.ps());
  if (walk.failures != des.failures)
    return field("failures", walk.failures, des.failures);
  if (walk.checkpoints != des.checkpoints)
    return field("checkpoints", walk.checkpoints, des.checkpoints);
  if (walk.completed != des.completed)
    return field("completed", walk.completed, des.completed);
  return ::testing::AssertionSuccess();
}

sim::RestartPlan plan_s(double work, double interval, double checkpoint,
                        double restart) {
  return {Duration::seconds(work), Duration::seconds(interval),
          Duration::seconds(checkpoint), Duration::seconds(restart)};
}

std::vector<Duration> at_seconds(std::initializer_list<double> secs) {
  std::vector<Duration> out;
  for (const double s : secs) out.push_back(Duration::seconds(s));
  return out;
}

struct TieCase {
  const char* what;
  sim::RestartPlan plan;
  std::vector<Duration> failures;
  double makespan_s;
  int failures_taken;
};

TEST(RenewalWalk, HandWrittenTiesMatchTheDes) {
  // W = 100, tau = 30, C = 5, R = 10: segments end at 35, 70, 105, 120.
  const sim::RestartPlan p = plan_s(100, 30, 5, 10);
  const sim::RestartPlan free_ckpt = plan_s(100, 30, 0, 0);
  const std::vector<TieCase> cases = {
      {"no failures", p, {}, 120, 0},
      {"at t = 0", p, at_seconds({0}), 130, 1},
      // The first segment's end wins; the failure then hits segment 2
      // as it starts and loses nothing.
      {"at the first segment end", p, at_seconds({35}), 130, 1},
      // A later segment's end loses: the whole 35 s segment is lost.
      {"at a later segment end", p, at_seconds({70}), 165, 1},
      // The restart's end loses: the reboot starts over at 60.
      {"at a restart end", p, at_seconds({50, 60}), 155, 2},
      {"mid restart", p, at_seconds({50, 55}), 150, 2},
      {"after completion", p, at_seconds({121, 500}), 120, 0},
      {"single segment, at its end", plan_s(10, 10, 1, 5), at_seconds({11}),
       11, 0},
      // C = 0 and R = 0: two failures at the first segment end, both
      // taken after it commits (the second mid-reboot, zero cost), then
      // one at segment 2's end that discards it.
      {"C = 0, R = 0 ties", free_ckpt, at_seconds({30, 30, 60}), 130, 3},
      {"C = 0, R = 0 unsorted", free_ckpt, at_seconds({60, 30, 30}), 130, 3},
      {"C = 0, R = 0 at t = 0 twice", free_ckpt, at_seconds({0, 0}), 100, 2},
  };
  for (const TieCase& c : cases) {
    const sim::RestartStats walk = run_interrupted(c.plan, c.failures);
    EXPECT_TRUE(same_stats(walk, des_replay(c.plan, c.failures))) << c.what;
    EXPECT_EQ(walk.makespan.ps(), Duration::seconds(c.makespan_s).ps()) << c.what;
    EXPECT_EQ(walk.failures, c.failures_taken) << c.what;
    EXPECT_TRUE(walk.completed) << c.what;
  }
}

TEST(RenewalWalk, SeededIntegerGridPlansMatchTheDesBitwise) {
  // Whole-second plans and failure times make exact ties common: with
  // segment ends, restart ends and other failures, and C = 0 / R = 0.
  Rng rng{20260};
  const auto secs = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return Duration::seconds(static_cast<double>(lo + rng.next_below(hi - lo + 1)));
  };
  for (int i = 0; i < 20000; ++i) {
    const sim::RestartPlan plan{secs(1, 120), secs(1, 40), secs(0, 6),
                                secs(0, 12)};
    std::vector<Duration> failures(rng.next_below(25));
    for (Duration& at : failures) at = secs(0, 240);
    ASSERT_TRUE(same_stats(run_interrupted(plan, failures),
                           des_replay(plan, failures)))
        << "case " << i;
  }
}

TEST(RenewalWalk, MonteCarloMeansMatchADesReplayOfEachReplication) {
  for (const sim::RestartPlan& plan :
       {plan_s(5000, 800, 50, 200), plan_s(36000, 1800, 120, 600)}) {
    const double mtbf_h = 1.5;
    const int replications = 300;
    const std::uint64_t seed = 77;
    // The horizon expected_interrupted_makespan draws failures up to.
    const Duration horizon = Duration::seconds(
        expected_makespan_s(plan.work.sec(), plan.interval.sec(),
                            plan.checkpoint.sec(), plan.restart.sec(),
                            mtbf_h * 3600.0) *
            10.0 +
        1.0);
    double makespan_sum = 0.0, failure_sum = 0.0;
    for (int r = 0; r < replications; ++r) {
      std::uint64_t s = seed + static_cast<std::uint64_t>(r);
      const sim::RestartStats des = des_replay(
          plan, generate_system_schedule(mtbf_h, horizon, splitmix64(s)));
      makespan_sum += des.makespan.sec();
      failure_sum += des.failures;
    }
    const MonteCarloResult mc =
        expected_interrupted_makespan(plan, mtbf_h, replications, seed);
    EXPECT_EQ(mc.mean_makespan_s, makespan_sum / replications);
    EXPECT_EQ(mc.mean_failures, failure_sum / replications);
    EXPECT_GT(mc.mean_failures, 0.5);
  }
}

// ---------------------------------------------------------------------------
// Degraded routing
// ---------------------------------------------------------------------------

TEST(DegradedRouting, HealthyOverlayReproducesDeterministicRoutes) {
  const topo::FatTree& t = full_topo();
  const topo::DegradedTopology d(t);
  for (int s : {0, 999, 2500})
    for (int e = 0; e < t.node_count(); e += 211) {
      const auto healthy = t.route(topo::NodeId{s}, topo::NodeId{e});
      const auto degraded = d.route(topo::NodeId{s}, topo::NodeId{e});
      ASSERT_TRUE(degraded.has_value());
      EXPECT_EQ(*degraded, healthy) << s << " -> " << e;
    }
}

TEST(DegradedRouting, EverySingleInterCuSwitchFailureReroutesCleanly) {
  const topo::FatTree& t = full_topo();
  topo::DegradedTopology d(t);
  for (int sw = 0; sw < t.params().inter_cu_switches; ++sw) {
    d.reset();
    d.fail_inter_cu_switch(sw);
    EXPECT_EQ(d.alive_node_count(), t.node_count());  // nodes unaffected
    const topo::RouteAudit audit = audit_routes(d);
    EXPECT_TRUE(audit.clean()) << "switch " << sw << ": broken=" << audit.broken
                               << " loops=" << audit.loops
                               << " below_bfs=" << audit.below_bfs_floor;
    EXPECT_EQ(audit.unreachable, 0) << "switch " << sw;
    // An alternate uplink switch gives an equal-length detour.
    EXPECT_EQ(audit.max_extra_hops, 0) << "switch " << sw;
    EXPECT_GT(audit.pairs_checked, 100) << "switch " << sw;
  }
}

TEST(DegradedRouting, SampledSingleCrossbarFailuresStayLoopFreeAndBounded) {
  const topo::FatTree& t = full_topo();
  topo::DegradedTopology d(t);
  for (int id = 0; id < t.crossbar_count(); id += 37) {
    d.reset();
    d.fail_crossbar(id);
    const topo::RouteAudit audit = audit_routes(d, 401, 149);
    EXPECT_TRUE(audit.clean()) << "crossbar " << id;
    EXPECT_EQ(audit.unreachable, 0) << "crossbar " << id;
    // Worst case is a dead entry crossbar: one extra up-down in the
    // destination CU.
    EXPECT_LE(audit.max_extra_hops, 2) << "crossbar " << id;
  }
}

TEST(DegradedRouting, CutCableOnTheDefaultRouteIsAvoided) {
  const topo::FatTree& t = full_topo();
  topo::DegradedTopology d(t);
  const topo::NodeId src{0}, dst{3059};
  const auto healthy = t.route(src, dst);
  ASSERT_GE(healthy.size(), 2u);
  d.fail_link(healthy[0], healthy[1]);
  const auto rerouted = d.route(src, dst);
  ASSERT_TRUE(rerouted.has_value());
  for (std::size_t i = 0; i + 1 < rerouted->size(); ++i) {
    EXPECT_TRUE(d.link_usable((*rerouted)[i], (*rerouted)[i + 1]));
    EXPECT_FALSE((*rerouted)[i] == healthy[0] &&
                 (*rerouted)[i + 1] == healthy[1]);
  }
  const std::set<int> unique(rerouted->begin(), rerouted->end());
  EXPECT_EQ(unique.size(), rerouted->size());
}

TEST(DegradedRouting, FailedNodeAndItsCrossbarNeighborsAreHandled) {
  const topo::FatTree& t = full_topo();
  topo::DegradedTopology d(t);
  d.fail_node(topo::NodeId{5});
  EXPECT_FALSE(d.node_alive(topo::NodeId{5}));
  EXPECT_FALSE(d.route(topo::NodeId{0}, topo::NodeId{5}).has_value());
  // Failing a lower crossbar kills all eight attached nodes.
  d.reset();
  const topo::Attachment& att = t.attachment(topo::NodeId{16});
  d.fail_crossbar(t.cu_lower_id(att.cu, att.lower_xbar));
  EXPECT_EQ(d.alive_node_count(), t.node_count() - 8);
}

TEST(DegradedRouting, CombinedScenarioHasNoLoopsOrBrokenCables) {
  const topo::FatTree& t = full_topo();
  topo::DegradedTopology d(t);
  d.fail_inter_cu_switch(2);
  d.fail_crossbar(t.cu_lower_id(4, 7));
  d.fail_crossbar(t.cu_upper_id(9, 3));
  d.fail_link(t.cu_lower_id(0, 0), t.cu_upper_id(0, 0));
  d.fail_node(topo::NodeId{100});
  const topo::RouteAudit audit = audit_routes(d, 257, 83);
  EXPECT_EQ(audit.broken, 0);
  EXPECT_EQ(audit.loops, 0);
  EXPECT_EQ(audit.below_bfs_floor, 0);
  EXPECT_EQ(audit.unreachable, 0);
}

TEST(DegradedRouting, ScheduleAppliedThroughInjectorDegradesFabric) {
  const topo::FatTree& t = full_topo();
  const auto cables = cable_list(t);
  topo::DegradedTopology fabric(t);
  sim::Simulator sim;
  FaultInjector injector(sim, Scenario{}
                                  .fail_inter_cu_switch(Duration::seconds(10), 1)
                                  .fail_node(Duration::seconds(20), 42)
                                  .fail_link(Duration::seconds(30), 100)
                                  .build());
  injector.arm([&](const FailureEvent& ev) {
    apply_to_fabric(fabric, ev, cables);
  });
  sim.run();
  EXPECT_EQ(fabric.failed_crossbar_count(), 36);
  EXPECT_FALSE(fabric.node_alive(topo::NodeId{42}));
  EXPECT_TRUE(fabric.link_failed(cables[100].first, cables[100].second));
  EXPECT_TRUE(audit_routes(fabric, 613, 149).clean());
}

// ---------------------------------------------------------------------------
// Reliable channel retry/backoff (deterministic DES)
// ---------------------------------------------------------------------------

comm::ChannelParams unit_latency_channel() {
  comm::ChannelParams p;
  p.name = "test link";
  p.latency = Duration::milliseconds(1);
  p.eager_bandwidth = Bandwidth::gb_per_sec(1);
  p.rendezvous_bandwidth = Bandwidth::gb_per_sec(1);
  return p;
}

TEST(ReliableChannel, RetriesThroughAnOutageAtExactTimes) {
  comm::RetryPolicy policy;
  policy.ack_timeout = Duration::milliseconds(1);
  policy.initial_backoff = Duration::milliseconds(1);
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = Duration::milliseconds(50);
  policy.max_attempts = 12;
  const comm::ReliableChannel ch(comm::ChannelModel{unit_latency_channel()},
                                 policy);

  sim::Simulator sim;
  comm::LinkState link;
  // Outage [0.5 ms, 10.5 ms], injected as DES events.
  sim.schedule(Duration::microseconds(500),
               [&] { link.set_up(sim.now(), false); });
  sim.schedule(Duration::microseconds(10500),
               [&] { link.set_up(sim.now(), true); });

  comm::DeliveryReport report;
  ch.send(sim, link, DataSize::zero(),
          [&report](const comm::DeliveryReport& r) { report = r; });
  sim.run();

  // Attempts fly [0,1], [3,4], [7,8] (lost: detect at +1 ms, back off 1,
  // 2, 4 ms), then [13,14] succeeds.
  ASSERT_TRUE(report.delivered);
  EXPECT_EQ(report.attempts, 4);
  EXPECT_EQ(report.completed_at.ps(),
            (TimePoint::origin() + Duration::milliseconds(14)).ps());
  EXPECT_EQ(report.backoff_total.ps(), Duration::milliseconds(7).ps());
}

TEST(ReliableChannel, GivesUpAfterMaxAttempts) {
  comm::RetryPolicy policy;
  policy.ack_timeout = Duration::milliseconds(1);
  policy.initial_backoff = Duration::milliseconds(1);
  policy.backoff_multiplier = 2.0;
  policy.max_attempts = 3;
  const comm::ReliableChannel ch(comm::ChannelModel{unit_latency_channel()},
                                 policy);

  sim::Simulator sim;
  comm::LinkState link;
  link.set_up(TimePoint::origin(), false);  // down for good

  comm::DeliveryReport report;
  ch.send(sim, link, DataSize::zero(),
          [&report](const comm::DeliveryReport& r) { report = r; });
  sim.run();

  // [0,1] detect 2, +1 back off; [3,4] detect 5, +2; [7,8] detect 9: out
  // of attempts.
  EXPECT_FALSE(report.delivered);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.completed_at.ps(),
            (TimePoint::origin() + Duration::milliseconds(9)).ps());
}

TEST(ReliableChannel, CleanLinkDeliversFirstTry) {
  const comm::ReliableChannel ch(comm::ChannelModel{unit_latency_channel()});
  sim::Simulator sim;
  comm::LinkState link;
  comm::DeliveryReport report;
  ch.send(sim, link, DataSize::kib(1),
          [&report](const comm::DeliveryReport& r) { report = r; });
  sim.run();
  EXPECT_TRUE(report.delivered);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(report.backoff_total.ps(), 0);
}

TEST(ReliableChannel, BackoffCapsAtMaxBackoff) {
  comm::RetryPolicy policy;
  policy.initial_backoff = Duration::milliseconds(1);
  policy.backoff_multiplier = 10.0;
  policy.max_backoff = Duration::milliseconds(5);
  const comm::ReliableChannel ch(comm::ChannelModel{unit_latency_channel()},
                                 policy);
  EXPECT_EQ(ch.backoff_after(1).ps(), Duration::milliseconds(1).ps());
  EXPECT_EQ(ch.backoff_after(2).ps(), Duration::milliseconds(5).ps());
  EXPECT_EQ(ch.backoff_after(7).ps(), Duration::milliseconds(5).ps());
}

// ---------------------------------------------------------------------------
// io checkpoint-cost sharing and end-to-end study
// ---------------------------------------------------------------------------

TEST(CheckpointCost, IoSubsystemExposesTheSharedCostPath) {
  const arch::SystemSpec system = arch::make_roadrunner();
  const io::IoSubsystem io(system);
  const DataSize state = DataSize::gib(4);
  EXPECT_EQ(io.checkpoint_cost(state).ps(),
            (io.metadata_storm(system.node_count()) + io.collective_write(state))
                .ps());
  const Duration interval = Duration::seconds(4 * 3600.0);
  EXPECT_NEAR(io.checkpoint_overhead(state, interval),
              io.checkpoint_cost(state).sec() / interval.sec(), 1e-12);
}

TEST(ResilienceStudy, FullMachinePointMatchesAnalyticWithinTenPercent) {
  const arch::SystemSpec system = arch::make_roadrunner();
  StudyConfig cfg;
  cfg.replications = 600;
  const ResiliencePoint pt =
      study_point(system, full_topo(), 3060,
                  hpl_fault_free_s(system, 3060), cfg);
  EXPECT_GT(pt.system_mtbf_h, 1.0);
  EXPECT_LT(pt.system_mtbf_h, 200.0);
  EXPECT_GT(pt.checkpoint_s, 1.0);
  EXPECT_LE(pt.interval_s, pt.fault_free_s);
  EXPECT_GT(pt.analytic_s, pt.fault_free_s);
  EXPECT_GT(pt.efficiency, 0.5);
  EXPECT_LE(pt.efficiency, 1.0);
  EXPECT_LT(pt.model_error(), 0.10);
}

TEST(ResilienceStudy, EfficiencyLossGrowsWithNodeCount) {
  const arch::SystemSpec system = arch::make_roadrunner();
  StudyConfig cfg;
  cfg.replications = 300;
  const auto points = sweep_study(system, full_topo(), {16, 3060}, 2000, cfg);
  ASSERT_EQ(points.size(), 2u);
  // More components => shorter MTBF => more overhead.
  EXPECT_GT(points[0].system_mtbf_h, points[1].system_mtbf_h);
  EXPECT_LT(points[0].overhead_analytic, points[1].overhead_analytic);
  EXPECT_GT(points[0].efficiency, points[1].efficiency);
}

TEST(ResilienceStudy, DeterministicTables) {
  const arch::SystemSpec system = arch::make_roadrunner();
  StudyConfig cfg;
  cfg.replications = 100;
  const ResiliencePoint a =
      study_point(system, full_topo(), 256, 3600.0, cfg);
  const ResiliencePoint b =
      study_point(system, full_topo(), 256, 3600.0, cfg);
  EXPECT_EQ(a.simulated_s, b.simulated_s);
  EXPECT_EQ(a.mean_failures, b.mean_failures);
  EXPECT_EQ(a.interval_s, b.interval_s);
}

// ---------------------------------------------------------------------------
// Error taxonomy and the shared backoff shape
// ---------------------------------------------------------------------------

TEST(Taxonomy, ErrorClassStringsRoundTrip) {
  for (const ErrorClass c :
       {ErrorClass::kTransient, ErrorClass::kPermanent, ErrorClass::kPoison}) {
    const auto back = error_class_from_string(to_string(c));
    ASSERT_TRUE(back.has_value()) << to_string(c);
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(error_class_from_string("flaky").has_value());
  EXPECT_FALSE(error_class_from_string("").has_value());
}

TEST(Taxonomy, BackoffIsTruncatedExponentialAndDeterministic) {
  // 100, 200, 400, ... doubling per loss, clamped at the cap.
  EXPECT_EQ(backoff_after(100.0, 2.0, 10'000.0, 1), 100.0);
  EXPECT_EQ(backoff_after(100.0, 2.0, 10'000.0, 2), 200.0);
  EXPECT_EQ(backoff_after(100.0, 2.0, 10'000.0, 5), 1'600.0);
  EXPECT_EQ(backoff_after(100.0, 2.0, 10'000.0, 8), 10'000.0);  // clamped
  EXPECT_EQ(backoff_after(100.0, 2.0, 10'000.0, 50), 10'000.0);
  // Same inputs, same wait -- every time (the retry loop relies on it).
  EXPECT_EQ(backoff_after(100.0, 2.0, 10'000.0, 7),
            backoff_after(100.0, 2.0, 10'000.0, 7));
}

TEST(Taxonomy, BackoffMatchesReliableChannelTimeline) {
  // The sweep retry policy replays the exact sequence ReliableChannel
  // schedules on the DES clock: same template, bit-identical waits.
  const comm::ReliableChannel ch{comm::ChannelModel(unit_latency_channel())};
  const comm::RetryPolicy& rp = ch.policy();
  for (int losses = 1; losses <= rp.max_attempts; ++losses)
    EXPECT_EQ(ch.backoff_after(losses).ps(),
              backoff_after(rp.initial_backoff, rp.backoff_multiplier,
                            rp.max_backoff, losses)
                  .ps())
        << losses;
}

TEST(Taxonomy, ExitCodeContractIsStable) {
  // The process exit-code contract (fault/taxonomy.hpp, README): these
  // values are wired into CI scripts and must never drift.
  EXPECT_EQ(to_int(ExitCode::kClean), 0);
  EXPECT_EQ(to_int(ExitCode::kError), 1);
  EXPECT_EQ(to_int(ExitCode::kUsage), 2);
  EXPECT_EQ(to_int(ExitCode::kDegraded), 3);
  EXPECT_EQ(to_int(ExitCode::kBudgetExceeded), 4);
  EXPECT_EQ(to_int(ExitCode::kCrash), 137);

  EXPECT_STREQ(describe(ExitCode::kClean), "clean");
  EXPECT_STREQ(describe(ExitCode::kDegraded), "degraded");
  EXPECT_STREQ(describe(ExitCode::kBudgetExceeded),
               "failure-budget-exceeded");
  EXPECT_STREQ(describe(ExitCode::kCrash), "crash-hook");

  for (const ExitCode c :
       {ExitCode::kClean, ExitCode::kError, ExitCode::kUsage,
        ExitCode::kDegraded, ExitCode::kBudgetExceeded, ExitCode::kCrash}) {
    const auto back = exit_code_from_int(to_int(c));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(exit_code_from_int(5).has_value());
  EXPECT_FALSE(exit_code_from_int(-1).has_value());
}

}  // namespace
}  // namespace rr::fault
