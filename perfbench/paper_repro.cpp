// paper_repro: the library calls behind every paper table, figure and
// ablation binary (bench_table*, bench_fig*, bench_apps_speedup,
// bench_hpl_walk, bench_collectives, bench_io_checkpoint,
// bench_ablation_*), in process, serial, without printing.
//
// Outputs are checked three ways each pass: bitwise against the golden
// files in tests/golden, against the paper anchors (arch::cal::kAnchor*),
// and a fingerprint of every number the pass computes must equal the
// warm-up pass's (and the value stored in expected_outputs.txt).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "arch/calibration.hpp"
#include "arch/spec.hpp"
#include "bench.hpp"
#include "comm/channel.hpp"
#include "comm/collectives.hpp"
#include "comm/fabric.hpp"
#include "comm/path.hpp"
#include "core/roadrunner.hpp"
#include "fault/checkpoint_policy.hpp"
#include "fault/failure_model.hpp"
#include "fault/resilience_study.hpp"
#include "io/io_model.hpp"
#include "mem/memory_system.hpp"
#include "model/apps.hpp"
#include "model/hpl_sim.hpp"
#include "model/linpack.hpp"
#include "model/sim_validation.hpp"
#include "model/sweep_model.hpp"
#include "spu/dma.hpp"
#include "spu/kernels.hpp"
#include "spu/microbench.hpp"
#include "sweep/schedule.hpp"
#include "topo/fat_tree.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

using namespace rr;
namespace cal = rr::arch::cal;
using arch::Precision;

/// FNV-1a over the bit patterns of every number a pass produces.
struct Fingerprint {
  std::uint64_t h = fnv1a(nullptr, 0);
  void put(double x) { h = fnv1a(&x, sizeof x, h); }
};

/// One paper anchor the pass reproduces.  `pinned` marks a known,
/// documented divergence whose size is held fixed (EXPERIMENTS.md).
struct Anchor {
  std::string name;
  double paper;
  double model;
  bool pinned = false;
  double rel_err() const { return std::abs(model - paper) / std::abs(paper); }
};

struct AppSpeedup {
  std::string name;
  double paper, model;
};

/// Everything one pass produces; rebuilt anew by every pass.
struct Outputs {
  Fingerprint fp;
  std::vector<Anchor> anchors;
  std::vector<AppSpeedup> apps;     ///< from pipeline(), anchored in analytic()
  std::vector<double> des_totals;   ///< from simulate(), compared in analytic()
  Json table1 = Json::object();
  Json table3 = Json::object();
  Json fig12 = Json::object();
  Json daly = Json::object();
  std::uint64_t routes = 0;
  std::uint64_t messages = 0;
};

// The model-vs-DES ablation's rank grids (bench_ablation_model_vs_des).
struct Grid {
  int px, py;
};
constexpr Grid kDesGrids[] = {{2, 1}, {2, 2}, {4, 2}, {8, 4}, {16, 4}, {16, 8}};

Json read_golden(const std::string& name) {
  const std::string path = std::string(RR_PERFBENCH_GOLDEN_DIR) + "/" + name;
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read golden file " + path);
  std::stringstream buf;
  buf << is.rdbuf();
  Json doc = Json::parse(buf.str());
  if (doc.at("tolerance").as_double() != 0.0)
    throw std::runtime_error(path + ": expected a bitwise (tolerance 0) golden");
  return doc;
}

/// Bitwise structural equality, the comparison tests/golden_test.cpp makes.
bool same_json(const Json& a, const Json& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Json::Kind::kNumber: {
      const double x = a.as_double(), y = b.as_double();
      return std::memcmp(&x, &y, sizeof x) == 0;
    }
    case Json::Kind::kString: return a.as_string() == b.as_string();
    case Json::Kind::kBool: return a.as_bool() == b.as_bool();
    case Json::Kind::kArray:
      if (a.size() != b.size()) return false;
      for (std::size_t i = 0; i < a.size(); ++i)
        if (!same_json(a.at(i), b.at(i))) return false;
      return true;
    case Json::Kind::kObject:
      if (a.as_object().size() != b.as_object().size()) return false;
      for (const auto& [key, value] : a.as_object()) {
        const Json* other = b.find(key);
        if (other == nullptr || !same_json(value, *other)) return false;
      }
      return true;
    case Json::Kind::kNull: return true;
  }
  return false;
}

class PaperRepro final : public Workload {
 public:
  PaperRepro()
      : topo_(topo::FatTree::roadrunner()),
        fabric_(topo_),
        two_cu_([] {
          topo::TopologyParams tp;
          tp.cu_count = 2;
          return topo::FatTree::build(tp);
        }()),
        full_(core::RoadrunnerSystem::full()),
        system_(arch::make_roadrunner()),
        spe_pxc_(model::spe_compute(arch::CellVariant::kPowerXCell8i)),
        opteron_1800_(model::opteron_1800_compute()),
        golden_{read_golden("table1_hops.json"),
                read_golden("table3_memory.json"),
                read_golden("fig12_sweep3d.json"),
                read_golden("daly_checkpoint.json")} {
    Tracer quiet;
    run(quiet);
    reference_ = out_.fp.h;
  }

  int threads() const override { return 1; }

  void run(Tracer& tr) override {
    out_ = Outputs{};
    const Span pass(tr, "paper_repro");
    routing(tr);
    paths(tr);
    memory(tr);
    pipeline(tr);
    simulate(tr);
    analytic(tr);
  }

  Tally check(Layers* layers, const PassTrace& trace) override {
    Tally t;
    auto expect = [&](bool ok) {
      ++t.attempted;
      if (!ok) ++t.failed;
    };
    expect(same_json(golden_[0], out_.table1));
    expect(same_json(golden_[1], out_.table3));
    expect(same_json(golden_[2], out_.fig12));
    expect(same_json(golden_[3], out_.daly));
    for (const Anchor& a : out_.anchors)
      expect(a.rel_err() <= (a.pinned ? kPinnedCeiling : kAnchorTolerance));
    expect(out_.fp.h == reference_);
    model_err_ = 0.0;
    for (const Anchor& a : out_.anchors)
      model_err_ = std::max(model_err_, a.rel_err());
    if (layers) {
      for (const char* layer :
           {"model.simulate_iteration", "mem.trace", "spu.pipeline",
            "topo.route", "comm.path", "model.analytic"})
        layers->add(std::string(layer) + "_s", trace.self.at(layer));
      layers->add("paper_repro.unattributed_s", trace.self.at("paper_repro"));
      layers->add("topo.routes", static_cast<double>(out_.routes));
      layers->add("cml.messages", static_cast<double>(out_.messages));
    }
    return t;
  }

  double model_err() const override { return model_err_; }
  /// The paper's inputs are fixed, so this does not depend on the seed.
  std::uint64_t output_hash() const override { return reference_; }

 private:
  // Anchor tolerance for the calibrated figures, and the ceiling on the
  // pinned divergences: the Fig. 6 MPI leg runs +16 % because the model
  // uses the 2.5 us same-crossbar latency of Fig. 10 where the paper
  // derived 2.16 us by subtraction, which also puts the Fig. 6 total ~4 %
  // high.
  static constexpr double kAnchorTolerance = 0.10;
  static constexpr double kPinnedCeiling = 0.20;

  void anchor(std::string name, double paper, double model,
              bool pinned = false) {
    out_.anchors.push_back({std::move(name), paper, model, pinned});
    out_.fp.put(model);
  }

  // Table I and the routing ablation.
  void routing(Tracer& tr) {
    const Span span(tr, "topo.route");
    const topo::NodeId src{0};
    const topo::Attachment& a0 = topo_.attachment(src);
    double classes[7] = {0, 0, 0, 0, 0, 0, 0};
    std::int64_t hop_total = 0;
    for (int d = 0; d < topo_.node_count(); ++d) {
      const topo::Attachment& att = topo_.attachment(topo::NodeId{d});
      hop_total += topo_.hop_count(src, topo::NodeId{d});
      int cls = 6;
      if (d == src.v) cls = 0;
      else if (att.cu == a0.cu && att.lower_xbar == a0.lower_xbar) cls = 1;
      else if (att.cu == a0.cu) cls = 2;
      else if (att.cu < 12 && att.lower_xbar == a0.lower_xbar) cls = 3;
      else if (att.cu < 12) cls = 4;
      else if (att.lower_xbar == a0.lower_xbar) cls = 5;
      ++classes[cls];
    }
    out_.routes += static_cast<std::uint64_t>(topo_.node_count());
    for (const int probe : {1, 100, 180, 280, 180 * 13, 180 * 13 + 100}) {
      out_.fp.put(topo_.hop_count(src, topo::NodeId{probe}));
      ++out_.routes;
    }
    const std::vector<int> hist = topo_.hop_histogram(src);
    out_.routes += static_cast<std::uint64_t>(topo_.node_count());
    const auto dist =
        topo_.bfs_crossbar_distance(topo_.cu_lower_id(a0.cu, a0.lower_xbar));
    for (const int h : dist) out_.fp.put(h);

    static const char* kClassNames[] = {
        "self",
        "within_same_crossbar",
        "within_same_cu",
        "cus_2_12_same_crossbar",
        "cus_2_12_different_crossbar",
        "cus_13_17_same_crossbar",
        "cus_13_17_different_crossbar"};
    Json cls = Json::object();
    for (int i = 0; i < 7; ++i) cls.set(kClassNames[i], classes[i]);
    Json h = Json::array();
    for (const int n : hist) h.push_back(static_cast<double>(n));
    out_.table1.set("tolerance", 0.0)
        .set("classes", std::move(cls))
        .set("hop_histogram", std::move(h))
        .set("average_hops",
             static_cast<double>(hop_total) / topo_.node_count());
  }

  // Figs. 6-10 and the collectives table.
  void paths(Tracer& tr) {
    const Span span(tr, "comm.path");
    Fingerprint& fp = out_.fp;

    const comm::PathModel c2c = comm::cell_to_cell_internode();
    const auto legs = c2c.latency_breakdown();
    double total = 0.0;
    for (const auto& [name, lat] : legs) total += lat.us();
    anchor("fig6.spe_local_leg", cal::kAnchorSpeLocalLeg.us(), legs.front().second.us());
    anchor("fig6.dacs_leg", cal::kAnchorDacsLatency.us(), legs[1].second.us());
    anchor("fig6.mpi_leg", cal::kAnchorMpiInternodeLatency.us(), legs[2].second.us(),
           /*pinned=*/true);
    anchor("fig6.total", cal::kAnchorCellToCellLatency.us(), total,
           /*pinned=*/true);

    const comm::PathModel intra = comm::ppe_opteron_intranode();
    const comm::PathModel inter = comm::cell_to_cell_allpairs();
    for (std::int64_t n = 1; n <= 1'048'576; n *= 4) {
      const DataSize d = DataSize::bytes(n);
      fp.put(intra.bidir_bandwidth_sum(d).mbps());
      fp.put(intra.uni_bandwidth(d).mbps());
      fp.put(inter.bidir_bandwidth_sum(d).mbps());
      fp.put(inter.uni_bandwidth(d).mbps());
    }
    const DataSize mb = DataSize::bytes(1'000'000);
    anchor("fig7.intranode_bidir", cal::kAnchorIntranodeBidir.mbps(),
           intra.bidir_bandwidth_sum(mb).mbps());
    anchor("fig7.intranode_uni_x2", cal::kAnchorIntranodeUniX2.mbps(),
           2 * intra.uni_bandwidth(mb).mbps());
    anchor("fig7.internode_bidir", cal::kAnchorInternodeBidir.mbps(),
           inter.bidir_bandwidth_sum(mb).mbps());
    anchor("fig7.internode_uni_x2", cal::kAnchorInternodeUniX2.mbps(),
           2 * inter.uni_bandwidth(mb).mbps());

    const comm::PathModel near = comm::opteron_mpi_internode(true, true);
    const comm::PathModel far = comm::opteron_mpi_internode(false, false);
    const comm::PathModel mixed = comm::opteron_mpi_internode(false, true);
    for (std::int64_t n = 1; n <= 10'000'000; n *= 10) {
      const DataSize d = DataSize::bytes(n);
      fp.put(near.uni_bandwidth(d).mbps());
      fp.put(far.uni_bandwidth(d).mbps());
      fp.put(mixed.uni_bandwidth(d).mbps());
    }
    const DataSize big = DataSize::mib(8);
    anchor("fig8.ib_cores_1_3", cal::kAnchorIbCores13.mbps(),
           near.uni_bandwidth(big).mbps());
    anchor("fig8.ib_cores_0_2", cal::kAnchorIbCores02.mbps(),
           far.uni_bandwidth(big).mbps());

    const comm::ChannelModel dacs{comm::dacs_pcie()};
    const comm::ChannelModel ib{
        comm::with_hops(comm::mpi_infiniband_default_params(), 3)};
    for (std::int64_t n = 1; n <= 1'000'000; n *= 10) {
      const DataSize d = DataSize::bytes(n);
      fp.put(dacs.uni_bandwidth(d).mbps());
      fp.put(ib.uni_bandwidth(d).mbps());
    }

    // Fig. 10: the serial latency sweep, plateau means per hop class.
    double sum[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int count[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (const auto& pt : fabric_.latency_sweep(topo::NodeId{0})) {
      const int h = std::clamp(pt.hops, 0, 7);
      sum[h] += pt.latency.us();
      ++count[h];
    }
    for (int h = 0; h < 8; ++h) {
      fp.put(sum[h]);
      fp.put(count[h]);
    }
    anchor("fig10.same_crossbar_latency", cal::kAnchorSameCrossbarMpiLatency.us(),
           count[1] ? sum[1] / count[1] : 0.0);
    anchor("fig10.mpi_1mb_default", cal::kAnchorMpi1MbDefault.mbps(),
           fabric_.average_bandwidth({0}, mb, false).mbps());
    anchor("fig10.mpi_1mb_pinned", cal::kAnchorMpi1MbPinned.gbps(),
           fabric_.average_bandwidth({0}, mb, true).gbps());

    const DataSize payload = DataSize::bytes(64);
    for (const bool mature : {false, true}) {
      const auto cl = comm::CollectiveLegs::roadrunner(payload, mature);
      fp.put(cl.intra_socket.us());
      fp.put(cl.cross_socket.us());
      fp.put(cl.internode.us());
      for (const int n : {8, 32, 1024, 32768, 97920}) {
        fp.put(comm::barrier_rounds(n));
        fp.put(comm::barrier_time(n, cl).us());
        fp.put(comm::allreduce_time(n, cl).us());
      }
    }
  }

  // Table III: the trace-driven cache-simulator sweep.
  void memory(Tracer& tr) {
    const Span span(tr, "mem.trace");
    const mem::MemoryModel opteron(mem::opteron_memory_system());
    const mem::MemoryModel ppe(mem::ppe_memory_system());
    for (std::int64_t kib = 8; kib <= 16 * 1024; kib *= 4) {
      const DataSize fp = DataSize::kib(static_cast<double>(kib));
      out_.fp.put(opteron.memtime_latency_trace(fp, 4000).ns());
      out_.fp.put(ppe.memtime_latency_trace(fp, 4000).ns());
    }
  }

  // Figs. 4-5, Table IV's pipeline factors, and the application speedups.
  void pipeline(Tracer& tr) {
    const Span span(tr, "spu.pipeline");
    const spu::SpuPipeline cbe{spu::PipelineSpec::cell_be()};
    const spu::SpuPipeline pxc{spu::PipelineSpec::powerxcell_8i()};
    for (const auto* pipe : {&cbe, &pxc})
      for (const auto& g : spu::measure_all_groups(*pipe)) {
        out_.fp.put(g.latency_cycles);
        out_.fp.put(g.repetition_cycles);
      }
    out_.fp.put(spu::fma_peak_rate(cbe, spu::IClass::kFPD).in_gflops());
    out_.fp.put(spu::fma_peak_rate(pxc, spu::IClass::kFPD).in_gflops());
    out_.fp.put(spu::sweep_cell_cycles(cbe) / spu::sweep_cell_cycles(pxc));
    for (const auto& k : model::all_app_kernels()) {
      const double speedup = cbe.steady_cycles_per_iteration(k.inner_loop) /
                             pxc.steady_cycles_per_iteration(k.inner_loop);
      out_.apps.push_back({k.name, k.paper_speedup, speedup});
    }
  }

  // The model-vs-DES ablation: one long DES queue per grid.
  void simulate(Tracer& tr) {
    const Span span(tr, "model.simulate_iteration");
    const model::SweepWorkload w;
    for (const Grid g : kDesGrids) {
      const auto des = model::simulate_iteration(w, g.px, g.py, spe_pxc_, two_cu_);
      out_.fp.put(des.total.sec());
      out_.messages += des.messages;
      out_.des_totals.push_back(des.total.sec());
    }
  }

  // Closed-form models: Tables II-IV, Figs. 3 and 12-14, the HPL walk,
  // the blocking/Cell BE/model-vs-DES ablations, I/O and the Daly optimum.
  void analytic(Tracer& tr) {
    const Span span(tr, "model.analytic");
    Fingerprint& fp = out_.fp;

    // Table III closed-form rows.
    const mem::MemoryModel opteron(mem::opteron_memory_system());
    const mem::MemoryModel ppe(mem::ppe_memory_system());
    struct MemRow {
      const char* name;
      double triad_gbps, latency_ns;
    };
    const MemRow rows[] = {
        {"opteron", opteron.streams_triad_reported().gbps(),
         opteron.memtime_latency(DataSize::mib(64)).ns()},
        {"ppe", ppe.streams_triad_reported().gbps(),
         ppe.memtime_latency(DataSize::mib(64)).ns()},
        {"spe", mem::spe_local_store_triad().gbps(),
         mem::spe_local_store_memtime().ns()}};
    out_.table3.set("tolerance", 0.0);
    for (const MemRow& r : rows) {
      Json row = Json::object();
      row.set("triad_gbps", r.triad_gbps).set("latency_ns", r.latency_ns);
      out_.table3.set(r.name, std::move(row));
    }
    anchor("table3.streams_opteron", cal::kAnchorStreamsOpteron.gbps(), rows[0].triad_gbps);
    anchor("table3.streams_ppe", cal::kAnchorStreamsPpe.gbps(), rows[1].triad_gbps);
    anchor("table3.streams_spe", cal::kAnchorStreamsSpe.gbps(), rows[2].triad_gbps);
    anchor("table3.latency_opteron", cal::kAnchorMemLatOpteron.ns(), rows[0].latency_ns);
    anchor("table3.latency_ppe", cal::kAnchorMemLatPpe.ns(), rows[1].latency_ns);
    anchor("table3.latency_spe", cal::kAnchorMemLatSpe.ns(), rows[2].latency_ns);

    // Table II and the headline numbers.
    const arch::SystemSpec& s = full_.spec();
    anchor("table2.peak_dp", cal::kAnchorSystemPeakDp.in_pflops(),
           s.system_peak(Precision::kDouble).in_pflops());
    anchor("table2.peak_sp", cal::kAnchorSystemPeakSp.in_pflops(),
           s.system_peak(Precision::kSingle).in_pflops());
    const auto lp = full_.linpack();
    const auto pw = full_.power();
    anchor("table2.linpack", cal::kAnchorLinpack.in_pflops(), lp.sustained.in_pflops());
    anchor("table2.green500", cal::kAnchorGreen500MflopsPerWatt, pw.linpack_mflops_per_watt);
    anchor("table2.cell_only_mflops_per_w", cal::kAnchorCellOnlyMflopsPerWatt,
           pw.cell_only_mflops_per_watt);
    anchor("table2.cell_peak_fraction", cal::kAnchorCellPeakFraction,
           s.cell_peak_fraction(Precision::kDouble));
    fp.put(s.cu_peak(Precision::kDouble).in_tflops());
    fp.put(s.node.opteron_peak(Precision::kDouble).in_gflops());
    fp.put(s.node.cell_peak(Precision::kSingle).in_gflops());

    // Fig. 3 node breakdown.
    const arch::TribladeSpec node = arch::make_triblade();
    fp.put(node.spe_peak(Precision::kDouble).in_gflops());
    fp.put(node.ppe_peak(Precision::kDouble).in_gflops());
    fp.put(static_cast<double>(node.cell_on_chip().b()));
    fp.put(static_cast<double>(node.opteron_on_chip().b()));

    // Table IV and the application speedups measured in pipeline().
    const model::TableIvResult t4 = model::table_iv();
    anchor("table4.prev_cbe", cal::kAnchorSweepPrevCbe, t4.prev_cbe_s);
    anchor("table4.ours_cbe", cal::kAnchorSweepOursCbe, t4.ours_cbe_s);
    anchor("table4.ours_pxc", cal::kAnchorSweepOursPxc, t4.ours_pxc_s);
    for (const AppSpeedup& a : out_.apps)
      if (a.paper != 1.0)  // VPIC's "no improvement" has no numeric anchor
        anchor("apps." + a.name, a.paper, a.model);

    // Fig. 12.
    Json f12 = Json::array();
    for (const auto& row : model::figure12_rows()) {
      Json r = Json::object();
      r.set("processor", row.processor)
          .set("single_core_ms", row.single_core_ms)
          .set("socket_ms", row.socket_ms)
          .set("socket_ranks", row.socket_ranks)
          .set("socket_cells_per_s", row.socket_cells_per_s)
          .set("spe_socket_advantage", row.spe_socket_advantage);
      f12.push_back(std::move(r));
    }
    out_.fig12.set("tolerance", 0.0).set("rows", std::move(f12));

    // Figs. 13-14, serially (the engine runs the same scale_point calls).
    const model::SweepWorkload w;
    for (const int nodes : model::paper_node_counts()) {
      const auto pt = model::scale_point(nodes, w, spe_pxc_, opteron_1800_);
      fp.put(pt.opteron_s);
      fp.put(pt.cell_measured_s);
      fp.put(pt.cell_best_s);
    }

    // HPL walk.
    for (const std::int64_t n :
         {250'000LL, 500'000LL, 1'000'000LL, 2'300'000LL, 4'000'000LL}) {
      model::HplSimParams p;
      p.n = n;
      fp.put(model::simulate_hpl(system_, p).sustained.in_pflops());
    }
    model::HplSimParams no_la;
    no_la.lookahead = false;
    fp.put(model::simulate_hpl(system_, no_la).sustained.in_pflops());

    // Ablations: MK blocking, Cell BE machine, analytic side of model-vs-DES.
    const auto pxc = model::spe_compute(arch::CellVariant::kPowerXCell8i);
    for (const int mk : {1, 2, 5, 10, 20, 50, 100, 200, 400}) {
      model::SweepWorkload bw;
      bw.mk = mk;
      sweep::ScheduleParams sp;
      sp.px = 320;
      sp.py = 306;
      sp.k_blocks = bw.kt / mk;
      fp.put(sweep::pipeline_efficiency(sp));
      fp.put(spu::LocalStore::sweep_block_fits(bw.it, bw.jt, mk, bw.angles));
      fp.put(model::estimate_iteration(bw, 320, 306, pxc,
                                       model::CommMode::kMeasuredEarly)
                 .total.sec());
    }
    arch::SystemSpec cbe_sys = system_;
    cbe_sys.node = arch::make_triblade(arch::CellVariant::kCellBe);
    fp.put(model::project_linpack(cbe_sys).sustained.in_pflops());
    fp.put(model::project_linpack(system_).sustained.in_pflops());
    const auto cbe = model::spe_compute(arch::CellVariant::kCellBe);
    const auto [px, py] = model::choose_grid(32 * 3060);
    fp.put(model::estimate_iteration(w, px, py, cbe, model::CommMode::kMeasuredEarly)
               .total.sec());
    fp.put(model::estimate_iteration(w, px, py, pxc, model::CommMode::kMeasuredEarly)
               .total.sec());
    std::size_t g_index = 0;
    for (const Grid g : kDesGrids) {
      const model::CommMode mode = g.px * g.py <= 8
                                       ? model::CommMode::kIntraSocketEib
                                       : model::CommMode::kMeasuredEarly;
      const double est = model::estimate_iteration(w, g.px, g.py, pxc, mode).total.sec();
      fp.put(out_.des_totals.at(g_index++) / est);
    }

    // I/O subsystem and the Daly checkpoint optimum.
    const io::IoSubsystem io(system_);
    fp.put(io.aggregate_bandwidth().gbps());
    fp.put(io.full_checkpoint().sec());
    fp.put(io.metadata_storm(97920).sec());
    fp.put(io.shared_input_read(DataSize::mib(1)).ms());
    for (const double gib : {1.0, 4.0, 8.0, 16.0, 32.0})
      fp.put(io.checkpoint_overhead(DataSize::gib(gib),
                                    Duration::seconds(4 * 3600.0)));

    const int nodes = topo_.node_count();
    const fault::StudyConfig scfg;
    const double mtbf_h =
        fault::system_mtbf_h(fault::census(topo_), scfg.reliability);
    const double mtbf_s = mtbf_h * 3600.0;
    const double checkpoint_s = io.checkpoint_cost(scfg.state_per_node).sec();
    const double fault_free_s = fault::hpl_fault_free_s(system_, nodes);
    const double daly_s =
        std::min(fault::daly_interval_s(checkpoint_s, mtbf_s), fault_free_s);
    out_.daly.set("tolerance", 0.0)
        .set("nodes", nodes)
        .set("system_mtbf_h", mtbf_h)
        .set("checkpoint_s", checkpoint_s)
        .set("fault_free_hpl_s", fault_free_s)
        .set("young_interval_s", fault::young_interval_s(checkpoint_s, mtbf_s))
        .set("daly_interval_s", daly_s)
        .set("analytic_makespan_s",
             fault::expected_makespan_s(fault_free_s, daly_s, checkpoint_s,
                                        scfg.restart_s, mtbf_s));
  }

  const topo::FatTree topo_;
  const comm::FabricModel fabric_;
  const topo::FatTree two_cu_;
  const core::RoadrunnerSystem full_;
  const arch::SystemSpec system_;
  const model::SweepCompute spe_pxc_;
  const model::SweepCompute opteron_1800_;
  const Json golden_[4];
  Outputs out_;
  std::uint64_t reference_ = 0;
  double model_err_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_repro() {
  return std::make_unique<PaperRepro>();
}

}  // namespace perfbench
