// mc_campaign and campaign_replay: the interrupted-HPL Monte-Carlo
// campaign of bench_campaign_service (24 scenarios x 200k replications),
// run through campaign::run_campaign in process (workers = 0, never fork).
//
//   mc_campaign      a cold campaign per pass on 2 threads, in fresh work
//                    and cache directories: the fault Monte-Carlo, the
//                    thread pool, journal appends and the cache publish.
//   campaign_replay  the same campaign queried back to back against a
//                    cache populated during set-up: lookup, result_hash
//                    revalidation, file reads and JSONL parsing.
#include <algorithm>
#include <cmath>
#include <filesystem>

#include "arch/spec.hpp"
#include "bench.hpp"
#include "campaign/cache.hpp"
#include "campaign/service.hpp"
#include "fault/resilience_study.hpp"
#include "obs/metrics.hpp"
#include "sweep_engine/journal.hpp"
#include "sweep_engine/result_store.hpp"
#include "topo/fat_tree.hpp"

namespace perfbench {
namespace {

using namespace rr;
namespace fs = std::filesystem;

constexpr int kScenarios = 24;
constexpr int kReplications = 200'000;
// Queries per campaign_replay pass.
constexpr int kQueries = 1000;

/// The campaign: bench_campaign_service's scenario body and parameters,
/// with `seed` as the base seed.  Owns its own system and topology.
class Campaign {
 public:
  explicit Campaign(std::uint64_t seed)
      : seed_(seed),
        system_(arch::make_roadrunner()),
        topo_(topo::FatTree::roadrunner()) {
    spec_.name = "perfbench";
    spec_.scenarios = kScenarios;
    spec_.base_seed = seed;
    Json nodes = Json::array();
    for (const int n : kGrid) nodes.push_back(n);
    spec_.params = Json::object();
    spec_.params.set("study", "interrupted-hpl-campaign")
        .set("scenarios", kScenarios)
        .set("replications", kReplications)
        .set("seed", static_cast<std::int64_t>(seed))
        .set("nodes", std::move(nodes));
  }

  const campaign::CampaignSpec& spec() const { return spec_; }

  Json scenario(int i) const {
    const int nodes = kGrid[static_cast<std::size_t>(i) % std::size(kGrid)];
    fault::StudyConfig cfg;
    cfg.replications = kReplications;
    cfg.seed = fault::study_point_seed(seed_, nodes, i);
    return engine::to_json(fault::study_point(
        system_, topo_, nodes, fault::hpl_fault_free_s(system_, nodes), cfg));
  }

  campaign::CampaignResult run(int threads, const std::string& work_dir,
                               const std::string& cache_dir,
                               const engine::ResilientScenario& fn) const {
    campaign::ServiceConfig cfg;
    cfg.workers = 0;
    cfg.threads_per_worker = threads;
    cfg.work_dir = work_dir;
    cfg.cache_dir = cache_dir;
    return campaign::run_campaign(spec_, fn, cfg);
  }

  campaign::CampaignResult run(int threads, const std::string& work_dir,
                               const std::string& cache_dir) const {
    return run(threads, work_dir, cache_dir,
               [this](int i, const engine::CancelToken&) { return scenario(i); });
  }

 private:
  static constexpr int kGrid[] = {256,  512,  768,  1020, 1536,
                                  2040, 2304, 2610, 3060};
  std::uint64_t seed_;
  arch::SystemSpec system_;
  topo::FatTree topo_;
  campaign::CampaignSpec spec_;
};

/// Largest |Monte-Carlo - Daly analytic| / analytic over the entries.
double max_model_error(const campaign::CampaignResult& r) {
  double err = 0.0;
  for (const auto& e : r.entries)
    if (e && e->ok())
      err = std::max(err,
                     engine::resilience_point_from_json(e->metrics).model_error());
  return err;
}

bool clean(const campaign::CampaignResult& r) {
  return r.outcome == engine::RunOutcome::kClean && r.ok == kScenarios;
}

std::uint64_t counter(const obs::Snapshot& s, const char* name) {
  const obs::MetricSnapshot* m = s.find(name);
  return m ? m->ivalue : 0;
}

double p50(const obs::Snapshot& s, const char* name) {
  const obs::MetricSnapshot* m = s.find(name);
  const double v = m ? obs::histogram_percentile(*m, 50.0) : 0.0;
  return std::isnan(v) ? 0.0 : v;
}

/// Sorted-sample percentile, p in [0, 1] (nearest rank).
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())) - 1.0);
  return v[std::min(idx, v.size() - 1)];
}

class McCampaign final : public Workload {
 public:
  McCampaign(std::uint64_t seed, std::string work_dir)
      : campaign_(seed), work_dir_(std::move(work_dir)) {
    prepare();
    Tracer quiet;
    run(quiet);
    reference_ = result_.result_bytes;
  }

  int threads() const override { return kThreads; }

  void prepare() override {
    ++pass_;
    work_ = work_dir_ + "/mc-work-" + std::to_string(pass_);
    cache_ = work_dir_ + "/mc-cache-" + std::to_string(pass_);
    fs::create_directories(work_);
    fs::create_directories(cache_);
    obs::MetricsRegistry::global().reset();
  }

  void run(Tracer& tr) override {
    const Span span(tr, "campaign");
    const int parent = span.id();
    result_ = campaign_.run(kThreads, work_, cache_,
                            [&](int i, const engine::CancelToken&) {
                              const Span s(tr, "fault.study_point", parent);
                              return campaign_.scenario(i);
                            });
  }

  Tally check(Layers* layers, const PassTrace& trace) override {
    const bool same = result_.result_bytes == reference_;
    Tally t;
    t.attempted = kScenarios;
    t.failed = same && clean(result_) && !result_.cache_hit
                   ? static_cast<std::uint64_t>(kScenarios - result_.ok)
                   : kScenarios;
    model_err_ = max_model_error(result_);
    if (layers) {
      const obs::Snapshot snap = obs::MetricsRegistry::global().snapshot();
      const double busy = trace.total.at("fault.study_point");
      const double wall = trace.total.at("campaign");
      const double reps = static_cast<double>(result_.ok) * kReplications;
      layers->add("fault.study_point_s", busy);
      layers->add("fault.replications", reps);
      layers->add("fault.replications_per_s", reps / wall);
      layers->add("campaign.self_s", trace.self.at("campaign"));
      layers->add("sweep_engine.parallel_eff", busy / (kThreads * wall));
      layers->add("sweep_engine.queue_wait_us_p50", p50(snap, "pool.queue_wait_us"));
      layers->add("sweep_engine.journal_appends",
                  static_cast<double>(counter(snap, "journal.appends")));
      layers->add("sweep_engine.fsync_us_p50", p50(snap, "journal.fsync_us"));
      layers->add("sweep_engine.retries",
                  static_cast<double>(counter(snap, "sweep.retries")));
      layers->add("campaign.cache_miss",
                  static_cast<double>(counter(snap, "campaign.cache.miss")));
    }
    fs::remove_all(work_);
    fs::remove_all(cache_);
    return t;
  }

  /// The bytes must not depend on the thread count: one more cold
  /// campaign on a single thread.
  Tally finish(Layers*) override {
    prepare();
    const campaign::CampaignResult one = campaign_.run(1, work_, cache_);
    fs::remove_all(work_);
    fs::remove_all(cache_);
    Tally t;
    t.attempted = kScenarios;
    if (one.result_bytes != reference_ || !clean(one)) t.failed += kScenarios;
    return t;
  }

  double model_err() const override { return model_err_; }
  std::uint64_t output_hash() const override {
    return fnv1a(reference_.data(), reference_.size());
  }

 private:
  static constexpr int kThreads = 2;
  Campaign campaign_;
  std::string work_dir_, work_, cache_;
  int pass_ = 0;
  campaign::CampaignResult result_;
  std::string reference_;
  double model_err_ = 0.0;
};

class CampaignReplay final : public Workload {
 public:
  CampaignReplay(std::uint64_t seed, const std::string& work_dir)
      : campaign_(seed),
        work_(work_dir + "/replay-work"),
        cache_(work_dir + "/replay-cache"),
        results_(kQueries) {
    fs::remove_all(work_);
    fs::remove_all(cache_);
    fs::create_directories(work_);
    fs::create_directories(cache_);
    // Populate the cache with a cold run (2 threads, set-up only).
    const campaign::CampaignResult cold = campaign_.run(2, work_, cache_);
    populated_ = cold.result_bytes;
    populate_ok_ = clean(cold) && !cold.cache_hit;
    model_err_ = max_model_error(cold);
    fs::remove_all(work_);
    fs::create_directories(work_);
    Tracer quiet;
    run(quiet);
  }

  int threads() const override { return 1; }

  void prepare() override { obs::MetricsRegistry::global().reset(); }

  void run(Tracer& tr) override {
    for (campaign::CampaignResult& r : results_) {
      const Span span(tr, "campaign.query");
      r = campaign_.run(1, work_, cache_);
    }
  }

  Tally check(Layers* layers, const PassTrace& trace) override {
    Tally t;
    for (const campaign::CampaignResult& r : results_) {
      ++t.attempted;
      if (!populate_ok_ || !r.cache_hit || r.result_bytes != populated_)
        ++t.failed;
    }
    if (layers) {
      const obs::Snapshot snap = obs::MetricsRegistry::global().snapshot();
      const std::vector<double>& q = trace.each.at("campaign.query");
      layers->add("campaign.query_p50_s", quantile(q, 0.50));
      layers->add("campaign.query_p99_s", quantile(q, 0.99));
      layers->add("campaign.cache_hit",
                  static_cast<double>(counter(snap, "campaign.cache.hit")));
      layers->add("campaign.cache_corrupt",
                  static_cast<double>(counter(snap, "campaign.cache.corrupt")));
    }
    return t;
  }

  /// On traced runs, time the cache layer alone: ResultCache::lookup
  /// called directly, once per query of a pass.
  Tally finish(Layers* layers) override {
    Tally t;
    if (!layers) return t;
    const campaign::ResultCache cache(cache_);
    const std::uint64_t id = engine::campaign_hash(campaign_.spec().params);
    std::vector<double> secs;
    for (int i = 0; i < kQueries; ++i) {
      const auto t0 = Clock::now();
      const auto hit = cache.lookup(id, campaign_.spec().params);
      secs.push_back(seconds_since(t0));
      ++t.attempted;
      if (!hit || hit->result_bytes != populated_) ++t.failed;
    }
    layers->add("campaign.lookup_s", median(secs));
    return t;
  }

  double model_err() const override { return model_err_; }
  std::uint64_t output_hash() const override {
    return fnv1a(populated_.data(), populated_.size());
  }

 private:
  Campaign campaign_;
  std::string work_, cache_;
  std::vector<campaign::CampaignResult> results_;
  std::string populated_;
  bool populate_ok_ = false;
  double model_err_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_mc_campaign(std::uint64_t seed,
                                           const std::string& work_dir) {
  return std::make_unique<McCampaign>(seed, work_dir);
}

std::unique_ptr<Workload> make_campaign_replay(std::uint64_t seed,
                                               const std::string& work_dir) {
  return std::make_unique<CampaignReplay>(seed, work_dir);
}

}  // namespace perfbench
