// Campaign service (DESIGN.md §11): cache -> resilient run -> publish.
//
// run_campaign() does three things, in one process:
//
//   1. looks the campaign identity up in the content-addressed result
//      cache (campaign/cache.hpp); a verified hit serves the cached
//      journal/report bytes with zero scenario executions;
//   2. otherwise runs every scenario through engine::run_resilient on a
//      SweepEngine thread pool, journaled (fsync'd) to
//      <work_dir>/journal.jsonl -- a rerun on the same work dir after a
//      crash or kill resumes from that journal, bit-exactly;
//   3. publishes a clean result into the cache.
//
// Crash recovery is rerun-and-resume: a process that dies mid-campaign
// loses only its in-flight scenarios, and the next run on the same work
// dir serves everything already journaled.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sweep_engine/resilient.hpp"

namespace rr::campaign {

/// What to run: the campaign identity is campaign_hash(params), exactly
/// the identity the journal and the result cache are keyed by.  Fold
/// anything that changes results (spec knobs, seed, engine provenance)
/// into `params`.
struct CampaignSpec {
  std::string name = "campaign";
  Json params = Json::object();
  int scenarios = 0;
  std::uint64_t base_seed = 0;
  /// Optional per-index seed override (must match what a standalone
  /// run_resilient of the same study would derive).
  std::function<std::uint64_t(int)> seed_of;
};

/// How to run it.
struct ServiceConfig {
  /// Must be 0: campaigns always run in-process.  The field survives
  /// only because the benchmark package (perfbench/campaign.cpp) sets it;
  /// it goes once that package is updated.
  int workers = 0;
  /// SweepEngine threads for the run (at least 1).  Named for the
  /// benchmark package, which sets it; it is the run's thread count.
  int threads_per_worker = 1;
  /// Directory for the campaign journal (created if missing).  Required
  /// when scenarios run; reusing it resumes the campaign.
  std::string work_dir;
  /// Result-cache root; empty disables caching.
  std::string cache_dir;
  /// Resilience settings (retry, watchdog deadline, failure budget).
  /// base_seed/seed_of are taken from the spec, not from here.
  engine::ResilientConfig resilient{};
  /// Chrome trace of the run (ProfSpan wall spans plus the final
  /// counter values), written to this path; empty disables tracing.
  std::string trace_path;
};

struct CampaignStats {
  int executed = 0;  ///< scenarios actually computed this run
  int resumed = 0;   ///< served from a pre-existing journal
};

struct CampaignResult {
  /// Entries in index order (nullopt = never ran).
  std::vector<std::optional<engine::JournalEntry>> entries;
  engine::RunOutcome outcome = engine::RunOutcome::kClean;
  bool cache_hit = false;
  std::string campaign;       ///< hex64 identity
  /// Canonical result bytes: one compact JSON line per entry in index
  /// order.  On a cache hit these are the cached bytes verbatim.
  std::string result_bytes;
  /// On a cache hit, the cached report.json / report.md verbatim.
  std::string cached_report_json;
  std::string cached_report_md;
  CampaignStats stats;
  /// The global metrics registry, snapshotted when the run ended; the
  /// report's metrics block.  Empty on a cache hit (the cached report
  /// carries the populating run's metrics).
  obs::Snapshot metrics;
  int ok = 0;
  int timed_out = 0;
  int quarantined = 0;
  int not_run = 0;

  /// fault::ExitCode of the outcome (same contract as ResilientReport).
  int exit_code() const { return engine::exit_code(outcome); }

  /// Atomic snapshot of result_bytes.
  bool write_results(const std::string& path) const;
};

/// Execute (or serve) the campaign.  `fn` must be deterministic per
/// (index, seed) -- that is what makes resumes and cache hits bit-exact.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const engine::ResilientScenario& fn,
                            const ServiceConfig& cfg);

/// The report.json/report.md pair for a finished campaign: rr-run-report
/// whose "metrics" block is the snapshot stored in the result, with the
/// campaign stats under "extra.campaign".  Repeated calls on one result
/// are byte-identical.  On a cache hit the cached pair is returned
/// verbatim instead of being rebuilt, so a hit's report is
/// byte-identical to the populating run's.
struct CampaignReportBytes {
  std::string json;
  std::string markdown;
};
CampaignReportBytes campaign_report(const CampaignSpec& spec,
                                    const ServiceConfig& cfg,
                                    const CampaignResult& result);

}  // namespace rr::campaign
