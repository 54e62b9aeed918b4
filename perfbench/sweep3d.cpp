// sweep3d: a functional Sn solve on a 32^3 grid whose per-cell source is
// drawn from the seed.  One pass runs sweep::solve (serial), then
// sweep::solve_kba on a 2 x 1 KBA decomposition (2 threads), then one
// sweep::sweep_once_cml on 4 x 4 SPE ranks of the simulated machine.
//
// Checks: the KBA fluxes are bitwise identical to the serial ones, the
// CML sweep's fluxes are bitwise identical to a serial sweep of the same
// emission, the particle balance closes, and every pass reproduces the
// warm-up pass bit for bit.  output_hash() covers the serial fluxes.
#include "bench.hpp"
#include "cml/cml.hpp"
#include "model/sweep_model.hpp"
#include "sim/simulator.hpp"
#include "sweep/cml_sweep.hpp"
#include "sweep/kba.hpp"
#include "sweep/quadrature.hpp"
#include "sweep/solver.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace rr;

constexpr int kGrid = 32;
constexpr double kEpsi = 1e-8;
constexpr int kMaxIters = 200;
// The solver tests' particle-balance tolerance.
constexpr double kBalanceTolerance = 1e-7;
const sweep::KbaConfig kKba{2, 1, 4};
const sweep::KbaConfig kCmlRanks{4, 4, 4};

sweep::Problem make_problem(std::uint64_t seed) {
  sweep::Problem p;
  p.nx = p.ny = p.nz = kGrid;
  p.dx = p.dy = p.dz = 0.5;
  p.sigma_t = 1.0;
  p.sigma_s = 0.5;
  Rng rng(seed);
  p.q.resize(p.cells());
  for (double& q : p.q) q = rng.uniform(0.5, 1.5);
  return p;
}

class Sweep3d final : public Workload {
 public:
  explicit Sweep3d(std::uint64_t seed)
      : problem_(make_problem(seed)),
        topo_([] {
          topo::TopologyParams tp;
          tp.cu_count = 1;
          return topo::FatTree::build(tp);
        }()),
        per_cell_angle_(
            model::spe_compute(arch::CellVariant::kPowerXCell8i).per_cell_angle),
        emission_(problem_.q),
        cml_reference_(sweep::sweep_once(problem_, emission_)) {
    Tracer quiet;
    run(quiet);
    reference_ = serial_.scalar_flux;
  }

  int threads() const override { return kKba.ranks(); }

  void run(Tracer& tr) override {
    {
      const Span span(tr, "sweep.serial_solve");
      serial_ = sweep::solve(problem_, kEpsi, kMaxIters);
    }
    {
      const Span span(tr, "sweep.kba_solve");
      kba_ = sweep::solve_kba(problem_, kKba, kEpsi, kMaxIters);
    }
    const Span span(tr, "sweep.cml_sweep");
    sim::Simulator simulator;
    cml::CmlWorld world(simulator, topo_, cml::CmlConfig{1, 4, 8});
    cml_ = sweep::sweep_once_cml(problem_, emission_, kCmlRanks, world,
                                 per_cell_angle_);
    events_ = simulator.events_run();
  }

  Tally check(Layers* layers, const PassTrace& trace) override {
    Tally t;
    auto expect = [&](bool ok) {
      ++t.attempted;
      if (!ok) ++t.failed;
    };
    expect(serial_.converged &&
           sweep::balance_residual(problem_, serial_) < kBalanceTolerance &&
           serial_.scalar_flux == reference_);
    expect(kba_.converged && kba_.iterations == serial_.iterations &&
           kba_.scalar_flux == serial_.scalar_flux);
    expect(cml_.sweep.scalar_flux == cml_reference_.scalar_flux &&
           cml_.sweep.fixups == cml_reference_.fixups && cml_.messages > 0);
    if (layers) {
      const double serial_s = trace.total.at("sweep.serial_solve");
      const double kba_s = trace.total.at("sweep.kba_solve");
      const double cml_s = trace.total.at("sweep.cml_sweep");
      const int iterations = serial_.iterations + kba_.iterations;
      const double angles = sweep::kOctants * sweep::kAnglesPerOctant;
      layers->add("sweep.serial_solve_s", serial_s);
      layers->add("sweep.kba_solve_s", kba_s);
      layers->add("sweep.kba_speedup", serial_s / kba_s);
      layers->add("sweep.cml_sweep_s", cml_s);
      layers->add("sweep.iterations", iterations);
      layers->add("sweep.cell_angle_updates",
                  (iterations + 1) * static_cast<double>(problem_.cells()) * angles);
      layers->add("sim.events", static_cast<double>(events_));
      layers->add("sim.events_per_s", static_cast<double>(events_) / cml_s);
      layers->add("cml.messages", static_cast<double>(cml_.messages));
    }
    return t;
  }

  std::uint64_t output_hash() const override {
    return fnv1a(reference_.data(), reference_.size() * sizeof(double));
  }

 private:
  const sweep::Problem problem_;
  const topo::FatTree topo_;
  const Duration per_cell_angle_;
  const std::vector<double> emission_;
  const sweep::SweepResult cml_reference_;
  sweep::SolveResult serial_, kba_;
  sweep::CmlSweepResult cml_;
  std::uint64_t events_ = 0;
  std::vector<double> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep3d(std::uint64_t seed) {
  return std::make_unique<Sweep3d>(seed);
}

}  // namespace perfbench
