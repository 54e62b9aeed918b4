// Sweep3D exactly as the paper built it (Sections V.B-C): each SPE rank
// owns a static subgrid, boundary angular fluxes travel as CML messages,
// and the whole thing runs on the simulated machine.  This is the
// *functional* and *timed* layer in one: the fluxes are real (bitwise
// identical to the serial solver, tests verify), and the completion time
// is simulated time over the calibrated transports with link contention.
#pragma once

#include "cml/cml.hpp"
#include "sweep/kba.hpp"
#include "sweep/solver.hpp"

namespace rr::sweep {

struct CmlSweepResult {
  SweepResult sweep;        ///< real fluxes, leakage, fixups
  Duration simulated_time;  ///< time on the modeled machine
  std::uint64_t messages = 0;
  int ranks = 0;
};

/// The tag of the boundary plane a rank sends for (octant, angle,
/// K-block, axis): dense, so distinct for every mk that fits an int.
int plane_tag(const KbaConfig& cfg, int octant, int angle, int block, int axis);

/// One full sweep (all octants/angles) with the given emission, on a
/// px x py rank array inside `world` (ranks are SPE ranks; world.size()
/// must be >= cfg.ranks()).  `per_cell_angle` is the SPE compute cost
/// charged per cell-angle update (e.g. model::spe_compute(...)).
CmlSweepResult sweep_once_cml(const Problem& p,
                              const std::vector<double>& emission,
                              const KbaConfig& cfg, cml::CmlWorld& world,
                              Duration per_cell_angle);

}  // namespace rr::sweep
