// Shared pieces of the benchmark: the workload interface, the
// in-memory span tracer, and per-layer sample collection.
//
// Every time here is HOST time (what the simulator costs to run).  The
// modelled machine's simulated outputs only feed correctness checks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// 64-bit FNV-1a over `n` bytes, continuing from `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around the calls the benchmark makes into each
// library layer.  Spans live in memory until the run ends.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  int pass = -1;    ///< spans of one pass share this identifier
  int parent = -1;  ///< index of the enclosing span, -1 for a pass root
  int thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Span times of one traced pass, in seconds, keyed by span name.
struct PassTrace {
  std::map<std::string, double> self;   ///< duration minus children's cover
  std::map<std::string, double> total;  ///< summed durations
  std::map<std::string, std::vector<double>> each;  ///< every duration
};

class Tracer {
 public:
  /// Spans are recorded only while a pass is traced.
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void begin_pass(int pass, bool traced);
  void end_pass() { on_ = false; }

  /// Open a span under `parent` (or under the calling thread's innermost
  /// open span when parent < 0); returns its id, or -1 when tracing is off.
  int open(const char* name, int parent = -1);
  void close(int id);

  /// Times of the spans recorded since the last begin_pass.  A span's self
  /// time is its duration minus the union of its children's intervals.
  PassTrace summarize_pass() const;
  /// Chrome trace-event JSON of every span.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  int pass_ = -1;
  std::size_t pass_first_ = 0;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int parent = -1)
      : tracer_(tracer), id_(tracer.open(name, parent)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Per-layer values recorded by a workload during traced passes (counts,
// rates); the median over passes is reported.
// ---------------------------------------------------------------------------
struct Layers {
  std::map<std::string, std::vector<double>> samples;
  void add(const std::string& name, double value) {
    samples[name].push_back(value);
  }
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
};

/// One benchmark workload.  Construction is the set-up: build the context,
/// run one warm-up pass, populate caches.  The caller then check()s the
/// warm-up pass like any other.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int threads() const = 0;
  /// Untimed, before each pass (fresh directories, registry reset).
  virtual void prepare() {}
  /// The timed pass.
  virtual void run(Tracer& tracer) = 0;
  /// Untimed, after each pass: verify the pass's outputs.  On traced
  /// passes (`layers` non-null) also record the per-layer values, from the
  /// pass's spans and the program's own counters.
  virtual Tally check(Layers* layers, const PassTrace& trace) = 0;
  /// Untimed, after the last pass: whole-run checks and layer probes.
  virtual Tally finish(Layers* layers) {
    (void)layers;
    return {};
  }
  /// Largest relative error against the reference the workload
  /// reproduces; 0 when it has none.
  virtual double model_err() const { return 0.0; }
  /// FNV-1a of the deterministic outputs of the warm-up pass, which every
  /// later pass must reproduce.  It is compared with the value stored in
  /// expected_outputs.txt for the run's seed.
  virtual std::uint64_t output_hash() const = 0;
};

// Workload factories; `work_dir` is this process's private directory.
std::unique_ptr<Workload> make_paper_repro();
std::unique_ptr<Workload> make_mc_campaign(std::uint64_t seed,
                                           const std::string& work_dir);
std::unique_ptr<Workload> make_campaign_replay(std::uint64_t seed,
                                               const std::string& work_dir);
std::unique_ptr<Workload> make_sweep3d(std::uint64_t seed);

double median(std::vector<double> v);

}  // namespace perfbench
