// Sn problems shared by the serial / KBA / CML differential tests: each
// case names a problem, an emission and a decomposition whose fluxes and
// fixups must match the serial sweep bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/kba.hpp"
#include "sweep/solver.hpp"
#include "util/rng.hpp"

namespace rr::sweep::cases {

/// 64-bit FNV-1a over raw bytes, chained through `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 14695981039346656037ull) {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  return h;
}

inline Problem grid(int nx, int ny, int nz) {
  Problem p;
  p.nx = nx;
  p.ny = ny;
  p.nz = nz;
  p.dx = p.dy = p.dz = 0.5;
  p.sigma_t = 1.0;
  p.sigma_s = 0.5;
  return p;
}

/// Uniform draws in [lo, hi), one per cell.
inline std::vector<double> seeded_field(const Problem& p, std::uint64_t seed,
                                        double lo = 0.5, double hi = 1.5) {
  Rng rng(seed);
  std::vector<double> v(p.cells());
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// A point source in optically thick cells: steep gradients drive
/// diamond-difference face fluxes negative, so the fixup path runs.
inline Problem fixup_heavy() {
  Problem p = grid(8, 8, 8);
  p.dx = p.dy = p.dz = 6.0;
  p.q.assign(p.cells(), 0.0);
  p.q[p.idx(4, 4, 4)] = 100.0;
  return p;
}

struct DiffCase {
  std::string name;
  Problem problem;
  std::vector<double> emission;
  KbaConfig cfg;
};

inline std::vector<DiffCase> diff_cases() {
  std::vector<DiffCase> out;
  {
    const Problem p = grid(8, 8, 8);
    out.push_back({"SeededEmission", p, seeded_field(p, 11, 0.0, 3.0), {2, 2, 2}});
  }
  {
    // 5 rows per rank and block plane, 10 rows per block: neither is a
    // multiple of the kernel's skew width.
    Problem p = grid(12, 10, 8);
    p.q = seeded_field(p, 12);
    out.push_back({"NonCubicRaggedRows", p, p.q, {2, 2, 4}});
  }
  {
    Problem p = grid(8, 8, 8);
    p.q = seeded_field(p, 13);
    out.push_back({"MkEqualsNz", p, p.q, {2, 2, 8}});
  }
  {
    const Problem p = fixup_heavy();
    out.push_back({"FixupHeavy", p, p.q, {2, 2, 2}});
  }
  return out;
}

}  // namespace rr::sweep::cases
