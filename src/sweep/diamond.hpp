// The Sn block kernel that every sweep runs: serial, KBA and CML.
//
// Each cell solves, for one discrete direction, the balance equation
//   sigma_t * psi * V + sum_d c_d * (psi_out_d - psi_in_d) * V = emission * V
// closed with the diamond relation psi_out_d = 2 psi - psi_in_d, where
// c_x = |mu|/dx etc.  The set-to-zero negative-flux fixup removes a face
// from the closure and re-solves, preserving particle balance exactly.
//
// A cell's division waits on its upstream neighbour's outflow, so one row
// swept cell by cell pays the full latency of every division.  The kernel
// sweeps several rows at once, skewed by one cell per row: cell (i, j) of
// a row and cell (i - 1, j + 1) of the next are independent, so that many
// recurrences are in flight.  Every cell still sees the same operands,
// and each cell's flux still accumulates in octant-then-angle order, so
// the result is bitwise that of the plain triple loop.
#pragma once

#include <cstdint>

#include "sweep/quadrature.hpp"
#include "sweep/solver.hpp"

namespace rr::sweep::detail {

/// One block of cells, the per-cell arrays it reads and writes, and its
/// inflow planes, all in block-local coordinates: cell (i, j, k) is
/// element k * plane + j * row + i of `emission` and `flux`; the planes
/// are x[k * by + j], y[k * bx + i] and z[j * bx + i].  The sweep leaves
/// the outflow in the planes.
struct Block {
  int bx = 0, by = 0, kb = 0;
  std::size_t row = 0, plane = 0;
  const double* emission = nullptr;
  double* flux = nullptr;
  double* x = nullptr;
  double* y = nullptr;
  double* z = nullptr;
};

/// Sweeps the block along one direction of octant `o`, adding
/// weight * psi to each cell's flux; returns the fixup count.
std::uint64_t sweep_block(const Block& b, const Problem& p, const Octant& o,
                          const Direction& d);

}  // namespace rr::sweep::detail
