#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "sweep/kba.hpp"
#include "sweep/quadrature.hpp"
#include "sweep/schedule.hpp"
#include "sweep/solver.hpp"
#include "sweep_cases.hpp"

namespace rr::sweep {
namespace {

using cases::DiffCase;

Problem small_problem(int n = 8) {
  Problem p;
  p.nx = p.ny = p.nz = n;
  p.dx = p.dy = p.dz = 0.5;
  p.sigma_t = 1.0;
  p.sigma_s = 0.5;
  return p;
}

// ---------------------------------------------------------------------------
// Quadrature
// ---------------------------------------------------------------------------

TEST(Quadrature, DirectionsAreUnitVectors) {
  for (const Direction& d : s6_all_angles()) {
    const double norm = d.mu * d.mu + d.eta * d.eta + d.xi * d.xi;
    EXPECT_NEAR(norm, 1.0, 1e-6);
  }
}

TEST(Quadrature, WeightsSumToOne) {
  EXPECT_NEAR(total_weight(), 1.0, 1e-12);
}

TEST(Quadrature, SixAnglesPerOctantFortyEightTotal) {
  EXPECT_EQ(s6_octant_angles().size(), 6u);
  EXPECT_EQ(s6_all_angles().size(), 48u);
}

TEST(Quadrature, OctantSignsCoverAllCombinations) {
  int seen = 0;
  for (int oc = 0; oc < kOctants; ++oc) {
    const Octant o = octant(oc);
    seen |= 1 << ((o.sx > 0 ? 0 : 1) + 2 * (o.sy > 0 ? 0 : 1) + 4 * (o.sz > 0 ? 0 : 1));
  }
  EXPECT_EQ(seen, 0xFF);
}

TEST(Quadrature, FirstMomentVanishesBySymmetry) {
  double mx = 0.0, my = 0.0, mz = 0.0;
  for (const Direction& d : s6_all_angles()) {
    mx += d.weight * d.mu;
    my += d.weight * d.eta;
    mz += d.weight * d.xi;
  }
  EXPECT_NEAR(mx, 0.0, 1e-14);
  EXPECT_NEAR(my, 0.0, 1e-14);
  EXPECT_NEAR(mz, 0.0, 1e-14);
}

// ---------------------------------------------------------------------------
// Serial solver physics
// ---------------------------------------------------------------------------

TEST(SerialSweep, FluxIsPositiveForPositiveSource) {
  const Problem p = small_problem();
  const SolveResult r = solve(p, 1e-8);
  ASSERT_TRUE(r.converged);
  for (const double phi : r.scalar_flux) EXPECT_GT(phi, 0.0);
}

TEST(SerialSweep, ConvergesForScatteringRatioBelowOne) {
  Problem p = small_problem();
  p.sigma_s = 0.9;
  const SolveResult r = solve(p, 1e-8, 500);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.residual, 1e-8);
}

TEST(SerialSweep, ParticleBalanceHolds) {
  const Problem p = small_problem();
  const SolveResult r = solve(p, 1e-10, 500);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(balance_residual(p, r), 1e-7);
}

TEST(SerialSweep, ParticleBalanceHoldsWithFixupsActive) {
  // A point source in optically thick cells produces steep gradients,
  // which drive diamond-difference face fluxes negative.
  Problem p = small_problem();
  p.dx = p.dy = p.dz = 6.0;
  p.q.assign(p.cells(), 0.0);
  p.q[p.idx(4, 4, 4)] = 100.0;
  std::vector<double> emission(p.q);
  const SweepResult one = sweep_once(p, emission);
  EXPECT_GT(one.fixups, 0u);  // fixup path genuinely exercised
  const SolveResult r = solve(p, 1e-10, 500);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(balance_residual(p, r), 1e-7);
}

// Every bit of a seeded solve (fluxes, leakage, residual, iteration
// count), with and without the fixup path, pinned so that any drift of
// the kernel fails here.  Unequal cell sides keep the three face terms
// from rounding alike.  Both values come from the unskewed loop that the
// block kernel replaced.
std::uint64_t solve_hash(const Problem& p, double epsi, int max_iters) {
  const SolveResult r = solve(p, epsi, max_iters);
  std::uint64_t h = cases::fnv1a(r.scalar_flux.data(),
                                 r.scalar_flux.size() * sizeof(double));
  h = cases::fnv1a(&r.leakage, sizeof r.leakage, h);
  h = cases::fnv1a(&r.residual, sizeof r.residual, h);
  return cases::fnv1a(&r.iterations, sizeof r.iterations, h);
}

TEST(SerialSweep, SeededSolveMatchesPinnedHash) {
  Problem p = cases::grid(12, 10, 8);
  p.dx = 0.37;
  p.dy = 0.53;
  p.dz = 0.71;
  p.sigma_t = 1.3;
  p.sigma_s = 0.6;
  p.q = cases::seeded_field(p, 1);
  EXPECT_EQ(solve_hash(p, 1e-8, 200), 0x8485bc2b85ef9b3du);

  Problem thick = cases::fixup_heavy();
  thick.dx = 5.0;
  thick.dy = 6.5;
  thick.dz = 4.3;
  ASSERT_GT(sweep_once(thick, thick.q).fixups, 0u);
  EXPECT_EQ(solve_hash(thick, 1e-10, 500), 0x77744d430ff12952u);
}

TEST(SerialSweep, RejectsZeroIterations) {
  EXPECT_DEATH(solve(small_problem(), 1e-6, 0), "Precondition");
}

TEST(SerialSweep, InfiniteMediumLimit) {
  // With a huge domain and pure absorption, the center flux approaches the
  // infinite-medium solution phi = q / sigma_a.
  Problem p;
  p.nx = p.ny = p.nz = 20;
  p.dx = p.dy = p.dz = 4.0;  // many mean free paths across
  p.sigma_t = 2.0;
  p.sigma_s = 0.0;
  const SolveResult r = solve(p, 1e-10);
  ASSERT_TRUE(r.converged);
  const double center = r.scalar_flux[p.idx(10, 10, 10)];
  EXPECT_NEAR(center, 1.0 / 2.0, 0.01);
}

TEST(SerialSweep, ScatteringRaisesFlux) {
  Problem pure = small_problem();
  pure.sigma_s = 0.0;
  Problem scat = small_problem();
  scat.sigma_s = 0.8;
  const double f0 = solve(pure, 1e-9).scalar_flux[pure.idx(4, 4, 4)];
  const double f1 = solve(scat, 1e-9, 500).scalar_flux[scat.idx(4, 4, 4)];
  EXPECT_GT(f1, f0);
}

TEST(SerialSweep, SolutionIsSymmetricForSymmetricProblem) {
  const Problem p = small_problem();
  const SolveResult r = solve(p, 1e-9);
  const auto& phi = r.scalar_flux;
  // Mirror symmetry in all three axes.
  for (int k = 0; k < p.nz; ++k)
    for (int j = 0; j < p.ny; ++j)
      for (int i = 0; i < p.nx; ++i) {
        const double a = phi[p.idx(i, j, k)];
        EXPECT_NEAR(a, phi[p.idx(p.nx - 1 - i, j, k)], 1e-9);
        EXPECT_NEAR(a, phi[p.idx(i, p.ny - 1 - j, k)], 1e-9);
        EXPECT_NEAR(a, phi[p.idx(i, j, p.nz - 1 - k)], 1e-9);
      }
}

TEST(SerialSweep, CenterFluxExceedsCornerFlux) {
  const Problem p = small_problem();
  const SolveResult r = solve(p, 1e-9);
  EXPECT_GT(r.scalar_flux[p.idx(4, 4, 4)], r.scalar_flux[p.idx(0, 0, 0)]);
}

TEST(SerialSweep, SourceLinearity) {
  // Transport is linear: doubling q doubles phi (no fixups triggered).
  Problem p = small_problem();
  p.flux_fixup = false;
  const SolveResult r1 = solve(p, 1e-11, 500);
  Problem p2 = p;
  p2.q.assign(p.cells(), 2.0);
  const SolveResult r2 = solve(p2, 1e-11, 500);
  for (std::size_t c = 0; c < p.cells(); c += 37)
    EXPECT_NEAR(r2.scalar_flux[c], 2.0 * r1.scalar_flux[c],
                1e-6 * r2.scalar_flux[c]);
}

// ---------------------------------------------------------------------------
// KBA parallel solver
// ---------------------------------------------------------------------------

struct KbaCase {
  int px, py, mk;
};

class KbaDecompositions : public ::testing::TestWithParam<KbaCase> {};

TEST_P(KbaDecompositions, BitwiseIdenticalToSerial) {
  const auto [px, py, mk] = GetParam();
  const Problem p = small_problem(8);
  const std::vector<double> emission(p.cells(), 1.0);
  const SweepResult serial = sweep_once(p, emission);
  const SweepResult par = sweep_once_kba(p, emission, KbaConfig{px, py, mk});
  ASSERT_EQ(par.scalar_flux.size(), serial.scalar_flux.size());
  for (std::size_t c = 0; c < serial.scalar_flux.size(); ++c)
    ASSERT_EQ(par.scalar_flux[c], serial.scalar_flux[c]) << "cell " << c;
  EXPECT_EQ(par.fixups, serial.fixups);
  EXPECT_NEAR(par.leakage, serial.leakage, 1e-12 * serial.leakage);
}

INSTANTIATE_TEST_SUITE_P(Decompositions, KbaDecompositions,
                         ::testing::Values(KbaCase{1, 1, 1}, KbaCase{2, 1, 2},
                                           KbaCase{1, 2, 4}, KbaCase{2, 2, 2},
                                           KbaCase{4, 2, 8}, KbaCase{2, 4, 1},
                                           KbaCase{4, 4, 4}),
                         [](const auto& inf) {
                           return "px" + std::to_string(inf.param.px) + "py" +
                                  std::to_string(inf.param.py) + "mk" +
                                  std::to_string(inf.param.mk);
                         });

TEST(KbaSolve, ConvergedSolutionMatchesSerial) {
  const Problem p = small_problem(8);
  const SolveResult serial = solve(p, 1e-9);
  const SolveResult par = solve_kba(p, KbaConfig{2, 2, 2}, 1e-9);
  ASSERT_TRUE(par.converged);
  EXPECT_EQ(par.iterations, serial.iterations);
  for (std::size_t c = 0; c < p.cells(); ++c)
    ASSERT_EQ(par.scalar_flux[c], serial.scalar_flux[c]);
}

TEST(KbaSolve, BalanceHoldsInParallel) {
  const Problem p = small_problem(8);
  const SolveResult r = solve_kba(p, KbaConfig{2, 2, 4}, 1e-10, 500);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(balance_residual(p, r), 1e-7);
}

class KbaDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(KbaDifferential, SweepBitwiseIdenticalToSerial) {
  const DiffCase& c = GetParam();
  const SweepResult serial = sweep_once(c.problem, c.emission);
  const SweepResult par = sweep_once_kba(c.problem, c.emission, c.cfg);
  ASSERT_EQ(par.scalar_flux, serial.scalar_flux);
  EXPECT_EQ(par.fixups, serial.fixups);
  if (c.name == "FixupHeavy") {
    EXPECT_GT(serial.fixups, 0u);
  }
}

TEST_P(KbaDifferential, SolveBitwiseIdenticalToSerial) {
  const DiffCase& c = GetParam();
  const SolveResult serial = solve(c.problem, 1e-9, 500);
  const SolveResult par = solve_kba(c.problem, c.cfg, 1e-9, 500);
  ASSERT_TRUE(serial.converged);
  EXPECT_EQ(par.converged, serial.converged);
  EXPECT_EQ(par.iterations, serial.iterations);
  EXPECT_EQ(par.residual, serial.residual);
  ASSERT_EQ(par.scalar_flux, serial.scalar_flux);
}

INSTANTIATE_TEST_SUITE_P(Cases, KbaDifferential,
                         ::testing::ValuesIn(cases::diff_cases()),
                         [](const auto& inf) { return inf.param.name; });

TEST(KbaSolve, RejectsZeroIterations) {
  EXPECT_DEATH(solve_kba(small_problem(), KbaConfig{2, 2, 2}, 1e-6, 0),
               "Precondition");
}

TEST(KbaSolve, RejectsNonDividingDecomposition) {
  const Problem p = small_problem(7);
  const std::vector<double> emission(p.cells(), 1.0);
  EXPECT_DEATH(sweep_once_kba(p, emission, KbaConfig{2, 1, 1}), "Precondition");
}

// ---------------------------------------------------------------------------
// Wavefront schedule (Fig. 11 semantics + the KBA step count)
// ---------------------------------------------------------------------------

TEST(Schedule, CornerRankStartsFirst) {
  EXPECT_EQ(wavefront_step(0, 0, 4, 4, 0, 0, 0), 0);
  EXPECT_EQ(wavefront_step(3, 3, 4, 4, 0, 0, 0), 6);
  EXPECT_EQ(wavefront_step(3, 3, 4, 4, 1, 1, 0), 0);  // opposite corner entry
}

TEST(Schedule, StepGrowsWithWorkUnit) {
  EXPECT_EQ(wavefront_step(1, 2, 4, 4, 0, 0, 5), 8);
}

TEST(Schedule, TotalStepsMatchesClassicKbaFormula) {
  ScheduleParams p;
  p.px = 8;
  p.py = 4;
  p.k_blocks = 10;
  p.angle_blocks = 1;
  // 8 octants x 10 blocks + 4 fills x ((8-1)+(4-1)) = 80 + 40.
  EXPECT_EQ(total_steps(p), 120);
}

TEST(Schedule, SingleRankHasNoPipelinePenalty) {
  ScheduleParams p;
  p.px = p.py = 1;
  p.k_blocks = 5;
  p.angle_blocks = 2;
  EXPECT_EQ(total_steps(p), work_units_per_rank(p));
  EXPECT_DOUBLE_EQ(pipeline_efficiency(p), 1.0);
}

TEST(Schedule, EfficiencyDropsAsArrayGrows) {
  ScheduleParams small;
  small.px = small.py = 2;
  small.k_blocks = 20;
  ScheduleParams big = small;
  big.px = big.py = 32;
  EXPECT_GT(pipeline_efficiency(small), pipeline_efficiency(big));
}

TEST(Schedule, MoreKBlocksImproveEfficiency) {
  // The paper: "Blocking is used to achieve high parallel efficiency".
  ScheduleParams coarse;
  coarse.px = coarse.py = 16;
  coarse.k_blocks = 1;
  ScheduleParams fine = coarse;
  fine.k_blocks = 20;
  EXPECT_GT(pipeline_efficiency(fine), pipeline_efficiency(coarse));
}

TEST(Schedule, ActiveCells2dFormAntiDiagonal) {
  const auto cells = active_cells_2d(4, 4, 3);
  ASSERT_EQ(cells.size(), 4u);
  for (const auto& [i, j] : cells) EXPECT_EQ(i + j, 3);
}

TEST(Schedule, ActiveCellCountsMatchFig11Progression) {
  // Fig. 11 (2-D): the wavefront grows 1, 2, 3, 4 cells over the first
  // four steps from a corner.
  for (int step = 0; step < 4; ++step)
    EXPECT_EQ(active_cells_2d(4, 4, step).size(), static_cast<std::size_t>(step + 1));
}

}  // namespace
}  // namespace rr::sweep
