// The Sn block kernel (diamond.hpp) and the rank runtime that the serial
// and KBA solvers run on.
#include "sweep/kba.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "obs/prof.hpp"
#include "sweep/diamond.hpp"

namespace rr::sweep {

namespace detail {

namespace {

/// Rows swept together: enough independent cells to cover the division
/// latency (widths 4 to 16 measured alike on an x86-64 host).
constexpr int kSkewRows = 8;

struct CellUpdate {
  double psi = 0.0;  ///< cell-average angular flux
  double out_x = 0.0, out_y = 0.0, out_z = 0.0;
  int fixups = 0;
};

/// The cell solve with the set-to-zero fixup: re-solves with a face
/// removed from the closure until no outflow is negative.
CellUpdate diamond_cell(double emission, double sigma_t, double cx, double cy,
                        double cz, double in_x, double in_y, double in_z) {
  CellUpdate u;
  bool fx = false, fy = false, fz = false;  // faces forced to zero
  for (int pass = 0; pass < 4; ++pass) {
    double num = emission;
    double den = sigma_t;
    num += fx ? cx * in_x : 2.0 * cx * in_x;
    num += fy ? cy * in_y : 2.0 * cy * in_y;
    num += fz ? cz * in_z : 2.0 * cz * in_z;
    if (!fx) den += 2.0 * cx;
    if (!fy) den += 2.0 * cy;
    if (!fz) den += 2.0 * cz;
    u.psi = num / den;
    u.out_x = fx ? 0.0 : 2.0 * u.psi - in_x;
    u.out_y = fy ? 0.0 : 2.0 * u.psi - in_y;
    u.out_z = fz ? 0.0 : 2.0 * u.psi - in_z;
    bool changed = false;
    if (u.out_x < 0.0 && !fx) { fx = true; changed = true; ++u.fixups; }
    if (u.out_y < 0.0 && !fy) { fy = true; changed = true; ++u.fixups; }
    if (u.out_z < 0.0 && !fz) { fz = true; changed = true; ++u.fixups; }
    if (!changed) return u;
  }
  return u;
}

}  // namespace

std::uint64_t sweep_block(const Block& b, const Problem& p, const Octant& o,
                          const Direction& d) {
  const double cx = d.mu / p.dx;
  const double cy = d.eta / p.dy;
  const double cz = d.xi / p.dz;
  const double weight = d.weight;
  const double sigma_t = p.sigma_t;
  const bool fixup = p.flux_fixup;
  // diamond_cell's first pass (every face closed by the diamond relation)
  // with its constants hoisted: the same operations in the same order.
  const double c2x = 2.0 * cx, c2y = 2.0 * cy, c2z = 2.0 * cz;
  const double den = ((sigma_t + c2x) + c2y) + c2z;
  const std::ptrdiff_t step = o.sx;  // memory step from one cell to the next
  const int i0 = o.sx > 0 ? 0 : b.bx - 1;
  const int rows = b.by * b.kb;  // (k, j) rows in sweep order, j fastest

  std::uint64_t fixups = 0;
  const double* e[kSkewRows];
  double *f[kSkewRows], *y[kSkewRows], *z[kSkewRows], *x[kSkewRows];
  double in_x[kSkewRows];
  for (int r0 = 0; r0 < rows; r0 += kSkewRows) {
    const int n = std::min(kSkewRows, rows - r0);
    for (int r = 0; r < n; ++r) {
      const int jj = (r0 + r) % b.by;
      const int kk = (r0 + r) / b.by;
      const int j = o.sy > 0 ? jj : b.by - 1 - jj;
      const int k = o.sz > 0 ? kk : b.kb - 1 - kk;
      const std::size_t first = k * b.plane + j * b.row + i0;
      e[r] = b.emission + first;
      f[r] = b.flux + first;
      y[r] = b.y + static_cast<std::size_t>(k) * b.bx + i0;
      z[r] = b.z + static_cast<std::size_t>(j) * b.bx + i0;
      x[r] = b.x + static_cast<std::size_t>(k) * b.by + j;
      in_x[r] = *x[r];
    }
    // Step t updates cell t - r of row r: its x inflow came from row r at
    // step t - 1, its y inflow from row r - 1 at step t - 1, and its z
    // inflow from an earlier row (k - 1) or an earlier block.
    for (int t = 0; t < b.bx + n - 1; ++t) {
      const int r_end = std::min(n, t + 1);
      for (int r = std::max(0, t - b.bx + 1); r < r_end; ++r) {
        const std::ptrdiff_t c = step * (t - r);
        const double ix = in_x[r], iy = y[r][c], iz = z[r][c];
        CellUpdate u;
        u.psi = (((e[r][c] + c2x * ix) + c2y * iy) + c2z * iz) / den;
        u.out_x = 2.0 * u.psi - ix;
        u.out_y = 2.0 * u.psi - iy;
        u.out_z = 2.0 * u.psi - iz;
        if (fixup && (u.out_x < 0.0 || u.out_y < 0.0 || u.out_z < 0.0))
          u = diamond_cell(e[r][c], sigma_t, cx, cy, cz, ix, iy, iz);
        f[r][c] += weight * u.psi;
        fixups += u.fixups;
        in_x[r] = u.out_x;
        y[r][c] = u.out_y;
        z[r][c] = u.out_z;
      }
    }
    for (int r = 0; r < n; ++r) *x[r] = in_x[r];
  }
  return fixups;
}

}  // namespace detail

namespace {

/// Blocks until `counter` no longer reads `seen`.  It spins before it
/// sleeps: a wait is usually shorter than one block's compute, and on a
/// virtual machine a futex wake-up can cost far more.  Time blocked lands
/// in sweep.blocked_us; each rank's whole run in sweep.rank_us.
void await_change(const std::atomic<std::uint32_t>& counter, std::uint32_t seen) {
  if (counter.load(std::memory_order_acquire) != seen) return;
  static obs::Histogram& blocked = obs::MetricsRegistry::global().histogram(
      "sweep.blocked_us", obs::latency_bounds_us());
  const obs::ProfSpan span("sweep.blocked", &blocked);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(200);
  while (counter.load(std::memory_order_acquire) == seen)
    if (std::chrono::steady_clock::now() > deadline)
      return counter.wait(seen, std::memory_order_acquire);
}

/// The boundary planes one rank receives from one neighbour, in a ring of
/// preallocated slots: the sender fills slot n and bumps `count`, the
/// receiver waits for `count` to pass n.  The ring holds one run of
/// octants that flow the link's way.  Before the sender starts the next
/// such run it receives a plane of the reverse run, which the receiver
/// sent after it had used every slot; so no slot is rewritten while read.
struct Link {
  std::vector<double> ring;  ///< empty: no neighbour on that side
  std::size_t plane = 0;
  std::atomic<std::uint32_t> count{0};
  double* slot(std::uint32_t n) { return ring.data() + n * plane % ring.size(); }
};

/// One rank of the px x py array: its inbound links in[axis][flow]
/// (axis 0 = x, 1 = y; flow 0 = toward +, from the - side neighbour),
/// its message and all_max counts, and its share of the last sweep.
struct Rank {
  int pi = 0, pj = 0;
  Link in[2][2];
  std::uint32_t sent[2][2] = {}, received[2][2] = {};
  std::size_t rounds = 0;
  double leakage = 0.0;
  std::uint64_t fixups = 0;
};

/// The rank array of one sweep or solve.  Each rank owns its columns of
/// cells as a contiguous tile (cell (i, j, k) at (k * by + j) * bx + i)
/// and runs on its own thread; the caller runs rank 0.
struct KbaRuntime {
  KbaRuntime(const Problem& problem, const KbaConfig& config) : p(problem), cfg(config) {
    RR_EXPECTS(p.nx > 0 && p.ny > 0 && p.nz > 0);
    RR_EXPECTS(cfg.px >= 1 && cfg.py >= 1 && cfg.mk >= 1);
    RR_EXPECTS(p.nx % cfg.px == 0);
    RR_EXPECTS(p.ny % cfg.py == 0);
    RR_EXPECTS(p.nz % cfg.mk == 0);
    bx = p.nx / cfg.px;
    by = p.ny / cfg.py;
    kb = p.nz / cfg.mk;
    ranks = std::vector<Rank>(static_cast<std::size_t>(cfg.ranks()));
    partial.resize(2 * ranks.size());
    // Octant bit 0 flips the x direction every octant, bit 1 the y
    // direction every second octant.
    const std::size_t run = static_cast<std::size_t>(kAnglesPerOctant) * cfg.mk;
    for (int id = 0; id < cfg.ranks(); ++id) {
      Rank& r = ranks[static_cast<std::size_t>(id)];
      r.pi = id % cfg.px;
      r.pj = id / cfg.px;
      for (int flow = 0; flow < 2; ++flow) {
        const int up = flow == 0 ? -1 : 1;
        if (r.pi + up >= 0 && r.pi + up < cfg.px) r.in[0][flow].plane = x_plane();
        if (r.pj + up >= 0 && r.pj + up < cfg.py) r.in[1][flow].plane = y_plane();
        r.in[0][flow].ring.resize(run * r.in[0][flow].plane);
        r.in[1][flow].ring.resize(2 * run * r.in[1][flow].plane);
      }
    }
  }

  std::size_t x_plane() const { return static_cast<std::size_t>(by) * kb; }
  std::size_t y_plane() const { return static_cast<std::size_t>(bx) * kb; }
  std::size_t tile_cells() const { return static_cast<std::size_t>(bx) * by * p.nz; }
  Rank* at(int pi, int pj) {
    if (pi < 0 || pi >= cfg.px || pj < 0 || pj >= cfg.py) return nullptr;
    return &ranks[static_cast<std::size_t>(pj) * cfg.px + pi];
  }

  /// Runs body(rank id) on every rank and joins them.
  template <class Body>
  void run(Body body) {
    auto timed = [&](int id) {
      static obs::Histogram& busy = obs::MetricsRegistry::global().histogram(
          "sweep.rank_us", obs::latency_bounds_us());
      const obs::ProfSpan span("sweep.rank", &busy);
      body(id);
    };
    std::vector<std::thread> threads;
    for (int id = 1; id < cfg.ranks(); ++id) threads.emplace_back(timed, id);
    timed(0);
    for (std::thread& t : threads) t.join();
  }

  /// Copies rank `id`'s cells from a global per-cell array into its tile,
  /// or (gather = false) from its tile into the global array.
  void copy(int id, const double* from, double* to, bool gather) const {
    const Rank& r = ranks[static_cast<std::size_t>(id)];
    for (int k = 0; k < p.nz; ++k)
      for (int j = 0; j < by; ++j) {
        const std::size_t g =
            (static_cast<std::size_t>(k) * p.ny + r.pj * by + j) * p.nx + r.pi * bx;
        const std::size_t t = (static_cast<std::size_t>(k) * by + j) * bx;
        std::memcpy(to + (gather ? t : g), from + (gather ? g : t), bx * sizeof(double));
      }
  }

  /// Leakage and fixups of the last sweep, summed in rank order.
  void tally(double& leakage, std::uint64_t& fixups) const {
    for (const Rank& r : ranks) {
      leakage += r.leakage;
      fixups += r.fixups;
    }
  }

  double all_max(Rank& me, double x);
  void sweep(int id, const double* emission, double* flux, std::size_t row,
             std::size_t plane);
  SolveResult iterate(int id, double epsi, int max_iters, std::vector<double>& phi,
                      std::vector<double>& emission, std::vector<double>& flux);

  const Problem& p;
  const KbaConfig cfg;
  int bx = 0, by = 0, kb = 0;
  std::vector<Rank> ranks;
  std::vector<double> partial;  ///< all_max values, two rows of ranks
  std::atomic<std::uint32_t> arrived{0};
};

/// The maximum of x over all ranks; every rank calls it in the same
/// rounds.  Two alternating rows of values let a rank write the next
/// round while a slower one still reads this one.
double KbaRuntime::all_max(Rank& me, double x) {
  const std::size_t n = ranks.size();
  double* row = partial.data() + (me.rounds % 2) * n;
  row[static_cast<std::size_t>(me.pj) * cfg.px + me.pi] = x;
  const auto all_in = static_cast<std::uint32_t>(++me.rounds * n);
  std::uint32_t seen = arrived.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (seen == all_in) arrived.notify_all();
  for (; static_cast<std::int32_t>(seen - all_in) < 0;
       seen = arrived.load(std::memory_order_acquire))
    await_change(arrived, seen);
  return *std::max_element(row, row + n);
}

/// One sweep of rank `id`'s cells, adding their scalar flux to `flux`.
/// Cell (i, j, k) of the rank is element k * plane + j * row + i of
/// `emission` and `flux`: a tile, or the global arrays offset to the
/// rank's corner.  Leakage is summed per angle over the rank's boundary
/// planes, x, y then z, and counted as weight * |sum|: on one rank with
/// mk = 1 that is the serial solver's definition, bit for bit.
void KbaRuntime::sweep(int id, const double* emission, double* flux,
                       std::size_t row, std::size_t plane) {
  Rank& me = ranks[static_cast<std::size_t>(id)];
  me.leakage = 0.0;
  me.fixups = 0;
  const double ax = p.dy * p.dz;  // face areas
  const double ay = p.dx * p.dz;
  const double az = p.dx * p.dy;
  std::vector<double> x_vacuum(x_plane()), y_vacuum(y_plane());
  std::vector<double> z_in(static_cast<std::size_t>(bx) * by);

  // The inflow plane along `axis`: the upstream rank's, or vacuum.
  auto take = [&](int axis, int flow, std::vector<double>& vacuum) {
    Link& link = me.in[axis][flow];
    if (link.ring.empty()) {
      std::fill(vacuum.begin(), vacuum.end(), 0.0);
      return vacuum.data();
    }
    await_change(link.count, me.received[axis][flow]);
    return link.slot(me.received[axis][flow]++);
  };
  // Sends the outflow plane downstream, or adds it to the leakage sum.
  auto give = [&](int axis, int flow, Rank* to, const double* out,
                  std::size_t size, double cosine_area, double& leak) {
    if (!to) {
      for (std::size_t c = 0; c < size; ++c) leak += cosine_area * out[c];
      return;
    }
    Link& link = to->in[axis][flow];
    std::memcpy(link.slot(me.sent[axis][flow]++), out, size * sizeof(double));
    link.count.fetch_add(1, std::memory_order_release);
    link.count.notify_one();
  };

  const auto angles = s6_octant_angles();
  for (int oc = 0; oc < kOctants; ++oc) {
    const Octant o = octant(oc);
    const int xflow = o.sx > 0 ? 0 : 1;
    const int yflow = o.sy > 0 ? 0 : 1;
    Rank* dn_x = at(me.pi + o.sx, me.pj);
    Rank* dn_y = at(me.pi, me.pj + o.sy);
    for (const Direction& d : angles) {
      std::fill(z_in.begin(), z_in.end(), 0.0);  // vacuum z entry
      double leak = 0.0;
      for (int b = 0; b < cfg.mk; ++b) {
        const std::size_t first =
            static_cast<std::size_t>(o.sz > 0 ? b : cfg.mk - 1 - b) * kb * plane;
        double* x_in = take(0, xflow, x_vacuum);
        double* y_in = take(1, yflow, y_vacuum);
        const detail::Block block{bx, by, kb, row, plane, emission + first,
                                  flux + first, x_in, y_in, z_in.data()};
        me.fixups += detail::sweep_block(block, p, o, d);
        give(0, xflow, dn_x, x_in, x_plane(), d.mu * ax, leak);
        give(1, yflow, dn_y, y_in, y_plane(), d.eta * ay, leak);
      }
      for (const double v : z_in) leak += d.xi * az * v;  // K is not split
      me.leakage += d.weight * std::abs(leak);
    }
  }
}

/// Source iteration phi <- Sweep(q + sigma_s * phi) on rank `id`'s tiles
/// (phi starts at zero and ends as the last sweep's flux).  The relative
/// change has a floor
/// tied to the peak flux, so cells many mean free paths from the source
/// (flux ~ 0) do not stall convergence.  Max is exact in any order, so
/// every decomposition converges alike.
SolveResult KbaRuntime::iterate(int id, double epsi, int max_iters,
                                std::vector<double>& phi, std::vector<double>& emission,
                                std::vector<double>& flux) {
  Rank& me = ranks[static_cast<std::size_t>(id)];
  SolveResult out;
  for (int it = 1; it <= max_iters && !out.converged; ++it) {
    if (p.q.empty()) std::fill(emission.begin(), emission.end(), 1.0);
    else copy(id, p.q.data(), emission.data(), true);
    for (std::size_t c = 0; c < phi.size(); ++c)
      emission[c] = emission[c] + p.sigma_s * phi[c];
    std::fill(flux.begin(), flux.end(), 0.0);
    sweep(id, emission.data(), flux.data(), bx, static_cast<std::size_t>(bx) * by);
    double peak = 0.0;
    for (const double f : flux) peak = std::max(peak, std::abs(f));
    peak = all_max(me, peak);
    double max_rel = 0.0;
    for (std::size_t c = 0; c < phi.size(); ++c) {
      const double denom = std::max(std::abs(flux[c]), 1e-12 * peak);
      max_rel = std::max(max_rel, std::abs(flux[c] - phi[c]) / denom);
    }
    phi.swap(flux);
    out.iterations = it;
    out.residual = all_max(me, max_rel);
    out.converged = out.residual < epsi;
  }
  return out;
}

}  // namespace

// One sweep reads and writes the global arrays in place; a solve keeps
// each rank's cells in its own tile and scatters them after the join.
SweepResult sweep_once_kba(const Problem& p, const std::vector<double>& emission,
                           const KbaConfig& cfg) {
  KbaRuntime rt(p, cfg);
  RR_EXPECTS(emission.size() == p.cells());
  SweepResult result;
  result.scalar_flux.assign(p.cells(), 0.0);
  rt.run([&](int id) {
    const Rank& r = rt.ranks[static_cast<std::size_t>(id)];
    const std::size_t corner = (static_cast<std::size_t>(r.pj) * rt.by * p.nx) + r.pi * rt.bx;
    rt.sweep(id, emission.data() + corner, result.scalar_flux.data() + corner,
             p.nx, static_cast<std::size_t>(p.nx) * p.ny);
  });
  rt.tally(result.leakage, result.fixups);
  return result;
}

SolveResult solve_kba(const Problem& p, const KbaConfig& cfg, double epsi,
                      int max_iters) {
  RR_EXPECTS(epsi > 0.0);
  RR_EXPECTS(max_iters >= 1);
  KbaRuntime rt(p, cfg);
  // Tiles phi, then emission and flux, per rank.  They are allocated on
  // this thread, and the scratch ones freed before the result is, so a
  // solve reuses the caller's heap instead of growing one per rank thread.
  const std::size_t n = rt.ranks.size();
  std::vector<std::vector<double>> tiles(3 * n);
  for (std::vector<double>& t : tiles) t.resize(rt.tile_cells());
  SolveResult out;
  rt.run([&](int id) {
    const auto r = static_cast<std::size_t>(id);
    const SolveResult mine =
        rt.iterate(id, epsi, max_iters, tiles[r], tiles[n + 2 * r], tiles[n + 2 * r + 1]);
    if (id == 0) out = mine;
  });
  tiles.resize(n);
  out.scalar_flux.resize(p.cells());
  for (int id = 0; id < rt.cfg.ranks(); ++id)
    rt.copy(id, tiles[static_cast<std::size_t>(id)].data(), out.scalar_flux.data(), false);
  std::uint64_t fixups = 0;
  rt.tally(out.leakage, fixups);
  return out;
}

}  // namespace rr::sweep
