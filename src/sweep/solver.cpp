#include "sweep/solver.hpp"

#include <cmath>

#include "sweep/kba.hpp"

namespace rr::sweep {

// The serial solver is the rank runtime of kba.cpp on one rank, with one
// K-block: the whole grid is a single block of the shared kernel.
SweepResult sweep_once(const Problem& p, const std::vector<double>& emission) {
  return sweep_once_kba(p, emission, KbaConfig{1, 1, 1});
}

SolveResult solve(const Problem& p, double epsi, int max_iters) {
  return solve_kba(p, KbaConfig{1, 1, 1}, epsi, max_iters);
}

double balance_residual(const Problem& p, const SolveResult& r) {
  RR_EXPECTS(r.scalar_flux.size() == p.cells());
  const double vol = p.dx * p.dy * p.dz;
  double source = 0.0;
  double absorption = 0.0;
  const double sigma_a = p.sigma_t - p.sigma_s;
  for (std::size_t c = 0; c < p.cells(); ++c) {
    source += p.source_at(c) * vol;
    absorption += sigma_a * r.scalar_flux[c] * vol;
  }
  // The quadrature weights sum to 1 (not 4*pi), so phi and the source are
  // in consistent units already.
  RR_EXPECTS(source > 0.0);
  return std::abs(source - absorption - r.leakage) / source;
}

}  // namespace rr::sweep
