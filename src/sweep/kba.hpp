// Thread-parallel Sweep3D with the KBA (Koch-Baker-Alcouffe) wavefront
// decomposition used by the paper (Section V.A): the grid is decomposed
// over a logical 2-D px x py processor array in I and J; the K dimension
// is split into K/MK blocks, the unit of pipelined work.  Each rank is one
// thread for the whole sweep or solve; boundary angular fluxes move through
// preallocated plane rings like the MPI version's boundary exchanges.
//
// The parallel sweep is bitwise-identical to the serial solver, which is
// this runtime on one rank: diamond differencing is a pure upstream
// recurrence, so cells see the same operands in the same order.
#pragma once

#include "sweep/solver.hpp"

namespace rr::sweep {

struct KbaConfig {
  int px = 2;   ///< ranks in I
  int py = 2;   ///< ranks in J
  int mk = 4;   ///< K-blocking factor: K is processed in blocks of nz/mk

  int ranks() const { return px * py; }
};

/// One full parallel sweep (all octants and angles) with the given
/// per-cell emission source.  Requires nx % px == 0, ny % py == 0,
/// nz % mk == 0.
SweepResult sweep_once_kba(const Problem& p, const std::vector<double>& emission,
                           const KbaConfig& cfg);

/// Source iteration around the parallel sweep.
SolveResult solve_kba(const Problem& p, const KbaConfig& cfg, double epsi = 1e-6,
                      int max_iters = 200);

}  // namespace rr::sweep
