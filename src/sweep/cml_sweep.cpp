#include "sweep/cml_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sweep/diamond.hpp"
#include "sweep/quadrature.hpp"
#include "util/expect.hpp"

namespace rr::sweep {

int plane_tag(const KbaConfig& cfg, int octant, int angle, int block, int axis) {
  return ((octant * kAnglesPerOctant + angle) * cfg.mk + block) * 2 + axis;
}

CmlSweepResult sweep_once_cml(const Problem& p, const std::vector<double>& emission,
                              const KbaConfig& cfg, cml::CmlWorld& world,
                              Duration per_cell_angle) {
  RR_EXPECTS(cfg.px >= 1 && cfg.py >= 1 && cfg.mk >= 1);
  RR_EXPECTS(p.nx % cfg.px == 0);
  RR_EXPECTS(p.ny % cfg.py == 0);
  RR_EXPECTS(p.nz % cfg.mk == 0);
  RR_EXPECTS(emission.size() == p.cells());
  RR_EXPECTS(world.size() >= cfg.ranks());
  RR_EXPECTS(cfg.mk <= std::numeric_limits<int>::max() / (2 * kOctants * kAnglesPerOctant));

  const int bx = p.nx / cfg.px;
  const int by = p.ny / cfg.py;
  const int kb = p.nz / cfg.mk;

  CmlSweepResult result;
  result.ranks = cfg.ranks();
  result.sweep.scalar_flux.assign(p.cells(), 0.0);

  const auto angles = s6_octant_angles();
  const double ax = p.dy * p.dz;
  const double ay = p.dx * p.dz;
  const double az = p.dx * p.dy;
  const std::uint64_t messages_before = world.network().messages_sent();

  auto program = [&](cml::CmlContext ctx) -> sim::Task<void> {
    const int r = ctx.rank();
    if (r >= cfg.ranks()) co_return;
    const int pi = r % cfg.px;
    const int pj = r / cfg.px;
    const int ib = pi * bx;
    const int jb = pj * by;

    const std::size_t x_size = static_cast<std::size_t>(by) * kb;
    const std::size_t y_size = static_cast<std::size_t>(bx) * kb;
    std::vector<double> x_in(x_size), y_in(y_size);
    std::vector<double> z_in(static_cast<std::size_t>(bx) * by);

    for (int oc = 0; oc < kOctants; ++oc) {
      const Octant o = octant(oc);
      const int up_pi = pi - o.sx;
      const int up_pj = pj - o.sy;
      const int dn_pi = pi + o.sx;
      const int dn_pj = pj + o.sy;
      const bool has_up_x = up_pi >= 0 && up_pi < cfg.px;
      const bool has_up_y = up_pj >= 0 && up_pj < cfg.py;
      const bool has_dn_x = dn_pi >= 0 && dn_pi < cfg.px;
      const bool has_dn_y = dn_pj >= 0 && dn_pj < cfg.py;

      for (int a = 0; a < kAnglesPerOctant; ++a) {
        const Direction& d = angles[a];
        std::fill(z_in.begin(), z_in.end(), 0.0);
        double leak = 0.0;  // summed as in the threaded ranks
        for (int b = 0; b < cfg.mk; ++b) {
          const int kblock = o.sz > 0 ? b : cfg.mk - 1 - b;
          if (has_up_x)
            x_in = (co_await ctx.recv(pj * cfg.px + up_pi, plane_tag(cfg, oc, a, b, 0))).payload;
          else
            std::fill(x_in.begin(), x_in.end(), 0.0);
          if (has_up_y)
            y_in = (co_await ctx.recv(up_pj * cfg.px + pi, plane_tag(cfg, oc, a, b, 1))).payload;
          else
            std::fill(y_in.begin(), y_in.end(), 0.0);
          RR_ASSERT(x_in.size() == x_size && y_in.size() == y_size);

          // Real diamond-difference block computation, charged to the SPE
          // at the calibrated per-(cell,angle) rate.
          const std::size_t first =
              (static_cast<std::size_t>(kblock) * kb * p.ny + jb) * p.nx + ib;
          const detail::Block block{bx, by, kb, static_cast<std::size_t>(p.nx),
                                    static_cast<std::size_t>(p.nx) * p.ny,
                                    emission.data() + first,
                                    result.sweep.scalar_flux.data() + first,
                                    x_in.data(), y_in.data(), z_in.data()};
          result.sweep.fixups += detail::sweep_block(block, p, o, d);
          co_await sim::Delay{world.simulator(),
                              per_cell_angle * (static_cast<std::int64_t>(bx) * by * kb)};

          if (has_dn_x)
            co_await ctx.send(pj * cfg.px + dn_pi, plane_tag(cfg, oc, a, b, 0), x_in);
          else
            for (const double v : x_in) leak += d.mu * ax * v;
          if (has_dn_y)
            co_await ctx.send(dn_pj * cfg.px + pi, plane_tag(cfg, oc, a, b, 1), y_in);
          else
            for (const double v : y_in) leak += d.eta * ay * v;
        }
        for (const double v : z_in) leak += d.xi * az * v;
        result.sweep.leakage += d.weight * std::abs(leak);
      }
    }
  };

  const TimePoint t0 = world.simulator().now();
  const std::size_t done = world.run(program);
  RR_ENSURES(done == static_cast<std::size_t>(world.size()));
  result.simulated_time = world.simulator().now() - t0;
  result.messages = world.network().messages_sent() - messages_before;
  return result;
}

}  // namespace rr::sweep
