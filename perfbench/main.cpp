// Benchmark entry point: one workload per process, closed loop, one caller.
//
//   rr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Run it from the checkout root: work, cache and trace files go under
// .bench_build/work.
//
// Set-up (building the workload's context, a warm-up pass, populating
// caches) runs kSetupReps times, spread over the run; setup_s is the
// median.  Each set-up's output hash is compared with the value stored in
// expected_outputs.txt for the run's seed, when there is one.  Timed
// passes repeat until S seconds have passed.  With --trace 0 the last
// stdout line carries the end-to-end metrics (medians per pass); with
// --trace 1 the passes alternate untraced/traced and it
// carries the per-layer metrics plus trace.overhead.  Exit status is 0
// only when every output check passed.
#include <sched.h>
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required
  bool trace = false;
};

using Factory = std::unique_ptr<Workload> (*)(std::uint64_t seed,
                                              const std::string& work_dir);

struct WorkloadEntry {
  Factory make;
  /// Threads the set-up runs (its warm-up pass, or populating the cache);
  /// it is pinned to this many vCPUs.
  int setup_threads;
};

const std::map<std::string, WorkloadEntry>& workloads() {
  static const std::map<std::string, WorkloadEntry> table = {
      {"paper_repro",
       {[](std::uint64_t, const std::string&) { return make_paper_repro(); }, 1}},
      {"mc_campaign", {make_mc_campaign, 2}},
      {"campaign_replay", {make_campaign_replay, 2}},
      {"sweep3d",
       {[](std::uint64_t seed, const std::string&) { return make_sweep3d(seed); },
        2}},
  };
  return table;
}

/// Every per-layer metric with its unit, in BENCHMARK.json order.  A
/// workload that does not run a layer reports it as 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"model.simulate_iteration_s", "s"},
      {"cml.messages", "count"},
      {"mem.trace_s", "s"},
      {"spu.pipeline_s", "s"},
      {"topo.route_s", "s"},
      {"topo.routes", "count"},
      {"comm.path_s", "s"},
      {"model.analytic_s", "s"},
      {"paper_repro.unattributed_s", "s"},
      {"fault.study_point_s", "s"},
      {"fault.replications", "count"},
      {"fault.replications_per_s", "1/s"},
      {"campaign.self_s", "s"},
      {"sweep_engine.parallel_eff", "ratio"},
      {"sweep_engine.queue_wait_us_p50", "us"},
      {"sweep_engine.journal_appends", "count"},
      {"sweep_engine.fsync_us_p50", "us"},
      {"sweep_engine.retries", "count"},
      {"campaign.cache_miss", "count"},
      {"campaign.query_p50_s", "s"},
      {"campaign.query_p99_s", "s"},
      {"campaign.lookup_s", "s"},
      {"campaign.cache_hit", "count"},
      {"campaign.cache_corrupt", "count"},
      {"sweep.serial_solve_s", "s"},
      {"sweep.kba_solve_s", "s"},
      {"sweep.kba_speedup", "ratio"},
      {"sweep.cml_sweep_s", "s"},
      {"sweep.iterations", "count"},
      {"sweep.cell_angle_updates", "count"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"model_err", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return metrics;
}

// Work, cache and trace files live here, inside the checkout the
// benchmark runs from.
constexpr const char* kWorkRoot = ".bench_build/work";
constexpr std::size_t kSetupReps = 7;
constexpr int kMinPasses = 6;

double cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// VmHWM (peak resident set) of this process, in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

std::string fs_type(const std::string& path) {
  struct statfs st{};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext2/3/4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// Pin the calling thread to the `k` vCPUs on which a short core-bound
/// loop runs fastest right now; threads the library starts during the next
/// pass inherit the set.  On a shared host a vCPU whose core is busy with
/// other tenants' work runs the same code up to ~1.6x slower for minutes
/// at a time, so without this the pass median follows the neighbours, not
/// the code.
void pin_to_fastest_cpus(int k) {
  const int n = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  std::vector<std::pair<double, int>> speed;
  for (int c = 0; c < n; ++c) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const auto t0 = Clock::now();
    std::uint64_t h = 1469598103934665603ULL + static_cast<std::uint64_t>(c);
    for (int i = 0; i < 300000; ++i) h = (h ^ (h >> 29)) * 1099511628211ULL;
    volatile std::uint64_t keep = h;  // the loop must not be optimised away
    (void)keep;
    speed.emplace_back(seconds_since(t0), c);
  }
  if (speed.empty()) return;
  std::sort(speed.begin(), speed.end());
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < speed.size() && i < static_cast<std::size_t>(k); ++i)
    CPU_SET(speed[i].second, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

/// The output hash stored for `workload` and `seed` ("*" matches every
/// seed), if any.  Lines are "<workload> <seed|*> <hex hash>"; '#' starts
/// a comment.
std::optional<std::uint64_t> expected_hash(const std::string& workload,
                                           std::uint64_t seed) {
  std::ifstream is(RR_PERFBENCH_EXPECTED_FILE);
  if (!is)
    throw std::runtime_error("cannot read " +
                             std::string(RR_PERFBENCH_EXPECTED_FILE));
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream fields(line.substr(0, line.find('#')));
    std::string name, key, hash;
    if (!(fields >> name >> key >> hash)) continue;
    if (name == workload && (key == "*" || key == std::to_string(seed)))
      return std::stoull(hash, nullptr, 16);
  }
  return std::nullopt;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") opt.seed = std::stoull(value);
    else if (arg == "--seconds") opt.seconds = std::stod(value);
    else if (arg == "--trace") opt.trace = value == "1";
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (opt.seconds <= 0)
    throw std::invalid_argument("--seconds is required and must be > 0");
  return opt;
}

struct Metric {
  std::string name, unit;
  double value;
};

int run(const Options& opt, const std::string& work_dir) {
  const WorkloadEntry& entry = workloads().at(opt.workload);
  const std::optional<std::uint64_t> expected =
      expected_hash(opt.workload, opt.seed);
  Tracer tracer;
  Layers layers;
  Tally tally;
  std::unique_ptr<Workload> wl;
  std::uint64_t output_hash = 0;
  std::vector<double> setups, wall, cpu, traced_wall;
  const auto set_up = [&] {
    wl.reset();
    pin_to_fastest_cpus(entry.setup_threads);
    const auto t0 = Clock::now();
    wl = entry.make(opt.seed, work_dir);
    setups.push_back(seconds_since(t0));
    tally += wl->check(nullptr, PassTrace{});
    output_hash = wl->output_hash();
    if (expected) tally += Tally{1, output_hash == *expected ? 0U : 1U};
  };

  set_up();
  const auto start = Clock::now();
  for (int pass = 0;
       pass < kMinPasses || seconds_since(start) < opt.seconds; ++pass) {
    // Later set-ups are spread over the window, so that setup_s sees the
    // same machine conditions as the passes.
    if (setups.size() < kSetupReps &&
        seconds_since(start) >= opt.seconds * static_cast<double>(setups.size()) /
                                    kSetupReps)
      set_up();
    const bool traced = opt.trace && pass % 2 == 1;
    wl->prepare();
    pin_to_fastest_cpus(wl->threads());
    tracer.begin_pass(pass, traced);
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    wl->run(tracer);
    const double dt = seconds_since(t0);
    const double dc = cpu_seconds() - c0;
    tracer.end_pass();
    (traced ? traced_wall : wall).push_back(dt);
    if (!traced) cpu.push_back(dc);
    tally += wl->check(traced ? &layers : nullptr,
                       traced ? tracer.summarize_pass() : PassTrace{});
  }
  tally += wl->finish(opt.trace ? &layers : nullptr);
  const double model_err = wl->model_err();
  const int threads = wl->threads();
  wl.reset();

  std::vector<Metric> out;
  if (!opt.trace) {
    out = {{"setup_s", "s", median(setups)},
           {"wall_s", "s", median(wall)},
           {"cpu_s", "s", median(cpu)},
           {"peak_rss_mb", "MB", peak_rss_mb()}};
  } else {
    layers.add("model_err", model_err);
    layers.add("trace.overhead", median(traced_wall) / median(wall) - 1.0);
    for (const LayerMetric& m : layer_metrics()) {
      const auto it = layers.samples.find(m.name);
      out.push_back({m.name, m.unit,
                     it == layers.samples.end() ? 0.0 : median(it->second)});
    }
    tracer.write_chrome_trace(std::string(kWorkRoot) + "/" + opt.workload +
                              ".trace.json");
  }

  const bool correct = tally.attempted > 0 && tally.failed == 0;
  std::cout << "passes " << wall.size() << " untraced, " << traced_wall.size()
            << " traced; setup reps " << setups.size() << "; threads "
            << threads << "\n"
            << "fail_ratio " << number(tally.attempted
                                           ? static_cast<double>(tally.failed) /
                                                 static_cast<double>(tally.attempted)
                                           : 1.0)
            << " (" << tally.failed << "/" << tally.attempted << ")\n"
            << "output_hash " << hex(output_hash) << " expected "
            << (expected ? hex(*expected) : "none stored for this seed")
            << "\n";
  if (!opt.trace) std::cout << "model_err " << number(model_err) << " ratio\n";
  for (const Metric& m : out)
    std::cout << m.name << " " << number(m.value) << " " << m.unit << "\n";

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i)
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " +
            number(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  std::cout << json << "}}\n" << std::flush;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    opt = parse(argc, argv);
    if (!workloads().count(opt.workload))
      throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "rr_perfbench: " << e.what() << "\n";
    return 2;
  }

  const std::string work_dir = std::string(kWorkRoot) + "/" + opt.workload +
                               "-" + std::to_string(::getpid());
  int status = 1;
  try {
    std::filesystem::create_directories(work_dir);
    std::cout << "workload " << opt.workload << " seed " << opt.seed
              << " seconds " << opt.seconds << " trace " << opt.trace << "\n"
              << "nproc " << ::sysconf(_SC_NPROCESSORS_ONLN) << " build "
              << RR_PERFBENCH_BUILD_TYPE << " work_fs " << fs_type(work_dir)
              << "\n";
    status = run(opt, work_dir);
  } catch (const std::exception& e) {
    std::cerr << "rr_perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    status = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  return status;
}
