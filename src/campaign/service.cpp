#include "campaign/service.hpp"

#include <algorithm>
#include <sstream>

#include "campaign/cache.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/report.hpp"
#include "sim/trace.hpp"
#include "util/expect.hpp"
#include "util/fileio.hpp"
#include "util/flightrec.hpp"
#include "util/log.hpp"

namespace rr::campaign {

namespace {

obs::Counter& cache_hit_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("campaign.cache.hit");
  return c;
}

obs::Counter& cache_miss_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("campaign.cache.miss");
  return c;
}

/// The SweepEngine thread count a run uses (and its report records).
int run_threads(const ServiceConfig& cfg) {
  return std::max(1, cfg.threads_per_worker);
}

void fill_counts(CampaignResult& result) {
  result.ok = result.timed_out = result.quarantined = result.not_run = 0;
  for (const auto& e : result.entries) {
    if (!e) {
      ++result.not_run;
      continue;
    }
    switch (e->status) {
      case engine::ScenarioStatus::kOk: ++result.ok; break;
      case engine::ScenarioStatus::kTimedOut: ++result.timed_out; break;
      case engine::ScenarioStatus::kQuarantined: ++result.quarantined; break;
    }
  }
}

std::string entries_bytes(
    const std::vector<std::optional<engine::JournalEntry>>& entries) {
  std::ostringstream os;
  engine::write_entries_jsonl(entries, os);
  return os.str();
}

/// Build a result from a verified cache hit.  The entry's bytes were read
/// and content-hash-validated during lookup, so no filesystem access
/// happens here; a structurally damaged result line still throws, and the
/// caller falls back to recomputing (miss semantics).
CampaignResult serve_from_cache(const CampaignSpec& spec,
                                const CacheEntry& hit) {
  CampaignResult result;
  result.cache_hit = true;
  result.campaign = engine::campaign_hex(engine::campaign_hash(spec.params));
  result.result_bytes = hit.result_bytes;
  result.cached_report_json = hit.report_json;
  result.cached_report_md = hit.report_md;
  result.entries.assign(static_cast<std::size_t>(spec.scenarios),
                        std::nullopt);
  for (const Json& rec : read_jsonl(result.result_bytes).records) {
    const engine::JournalEntry e = engine::journal_entry_from_json(rec);
    if (e.index < 0 || e.index >= spec.scenarios)
      throw std::runtime_error("cached entry index " +
                               std::to_string(e.index) +
                               " outside campaign of " +
                               std::to_string(spec.scenarios));
    result.entries[static_cast<std::size_t>(e.index)] = e;
  }
  fill_counts(result);
  result.outcome = engine::RunOutcome::kClean;  // only clean runs are cached
  // The acceptance contract: a full cache hit counts one hit per scenario
  // served, so `campaign.cache.hit == scenario count` on a repeat query.
  cache_hit_counter().add(static_cast<std::uint64_t>(spec.scenarios));
  RR_INFO("campaign cache: hit for " << result.campaign << " ("
                                     << spec.scenarios << " scenarios)");
  return result;
}

/// Every scenario through run_resilient on one thread pool and one
/// journal; scenarios already in the journal are served, not recomputed.
void run_journaled(const CampaignSpec& spec,
                   const engine::ResilientScenario& fn,
                   const ServiceConfig& cfg, CampaignResult& result) {
  const bool tracing = !cfg.trace_path.empty();
  sim::TraceRecorder rec;
  if (tracing) obs::WallTrace::global().attach(&rec, "wall/campaign");
  engine::SweepEngine eng({run_threads(cfg)});
  engine::SweepJournal journal(cfg.work_dir + "/journal.jsonl", spec.params,
                               spec.scenarios);
  engine::ResilientConfig rcfg = cfg.resilient;
  rcfg.base_seed = spec.base_seed;
  rcfg.seed_of = spec.seed_of;
  const engine::ResilientReport rep = [&] {
    obs::ProfSpan span("campaign x" + std::to_string(spec.scenarios));
    return engine::run_resilient(eng, spec.scenarios, fn, &journal, rcfg);
  }();
  result.entries = rep.entries;
  result.outcome = rep.outcome;
  result.stats.resumed = rep.resumed;
  result.stats.executed = spec.scenarios - rep.resumed - rep.not_run;
  if (tracing) {
    obs::WallTrace::global().attach(nullptr, "");
    obs::export_counters(obs::MetricsRegistry::global().snapshot(), rec,
                         obs::wall_now(), "wall/campaign");
    std::ostringstream os;
    rec.write_json(os);
    if (!write_file_atomic(cfg.trace_path, os.str()))
      RR_WARN("campaign: could not write trace " << cfg.trace_path);
  }
}

}  // namespace

bool CampaignResult::write_results(const std::string& path) const {
  return write_file_atomic(path, result_bytes);
}

CampaignReportBytes campaign_report(const CampaignSpec& spec,
                                    const ServiceConfig& cfg,
                                    const CampaignResult& result) {
  if (result.cache_hit)
    return {result.cached_report_json, result.cached_report_md};
  obs::RunInfo info;
  info.name = spec.name;
  info.campaign = result.campaign;
  info.params = spec.params;
  info.seed = std::to_string(spec.base_seed);
  info.threads = run_threads(cfg);
  obs::RunReport report(info);
  // The stored end-of-run snapshot, never a fresh global one, so
  // repeated calls on one result are byte-identical.
  report.add_snapshot(result.metrics);
  Json c = Json::object();
  c.set("scenarios", spec.scenarios)
      .set("outcome", engine::to_string(result.outcome))
      .set("ok", result.ok)
      .set("timed_out", result.timed_out)
      .set("quarantined", result.quarantined)
      .set("not_run", result.not_run)
      .set("executed", result.stats.executed)
      .set("resumed", result.stats.resumed)
      .set("cache_hit", result.cache_hit);
  report.set_extra("campaign", std::move(c));
  return {report.to_json().dump(2) + "\n", report.to_markdown()};
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const engine::ResilientScenario& fn,
                            const ServiceConfig& cfg) {
  RR_EXPECTS(spec.scenarios >= 0);
  RR_EXPECTS(cfg.workers == 0);
  const std::uint64_t campaign = engine::campaign_hash(spec.params);
  const std::string campaign_id = engine::campaign_hex(campaign);

  // Cache front door.
  std::optional<ResultCache> cache;
  if (!cfg.cache_dir.empty()) {
    cache.emplace(cfg.cache_dir);
    if (const auto hit = cache->lookup(campaign, spec.params)) {
      try {
        return serve_from_cache(spec, *hit);
      } catch (const std::exception& e) {
        obs::MetricsRegistry::global()
            .counter("campaign.cache.corrupt")
            .inc();
        RR_WARN("campaign cache: entry " << hit->dir << " unusable ("
                                         << e.what() << "); recomputing");
      }
    }
    cache_miss_counter().inc();
  }

  CampaignResult result;
  result.campaign = campaign_id;
  if (spec.scenarios == 0) {
    fill_counts(result);
    return result;
  }

  RR_EXPECTS(!cfg.work_dir.empty());
  IoError dir_err;
  if (!make_dirs(cfg.work_dir, &dir_err)) {
    // Degrade, don't die: with no work dir the journal falls back to
    // memory-only (and reports the run as degraded), but every scenario
    // still executes.
    RR_ERROR("campaign: " << dir_err.detail
                          << "; continuing without a durable journal");
  }

  // Flight recorder: every campaign run arms a postmortem destination
  // (unless the host already picked one) and answers SIGUSR1 with a live
  // ring dump -- the "what is that stuck campaign doing" probe.
  if (!FlightRecorder::global().has_dump_path())
    FlightRecorder::global().set_dump_path(cfg.work_dir + "/flightrec.json");
  FlightRecorder::install_sigusr1();
  FlightRecorder::global().record(
      FlightKind::kMark,
      "campaign " + campaign_id + " start: " +
          std::to_string(spec.scenarios) + " scenarios, threads=" +
          std::to_string(run_threads(cfg)),
      static_cast<double>(spec.scenarios));

  run_journaled(spec, fn, cfg, result);
  result.metrics = obs::MetricsRegistry::global().snapshot();
  fill_counts(result);
  result.result_bytes = entries_bytes(result.entries);

  if (cache && result.outcome == engine::RunOutcome::kClean) {
    const CampaignReportBytes rep = campaign_report(spec, cfg, result);
    Json meta = Json::object();
    meta.set("cache", "rr-campaign-cache").set("version", 1)
        .set("campaign", campaign_id).set("name", spec.name)
        .set("scenarios", spec.scenarios).set("params", spec.params)
        .set("outcome", engine::to_string(result.outcome));
    cache->publish(campaign, meta, result.result_bytes, rep.json,
                   rep.markdown);
  }

  FlightRecorder::global().record(
      FlightKind::kMark,
      "campaign " + campaign_id + " " + engine::to_string(result.outcome),
      static_cast<double>(result.exit_code()));
  // A degraded-or-worse outcome is a dump trigger even when the process
  // itself survives: the postmortem captures the run that went wrong, not
  // just runs that die.
  if (result.exit_code() >= fault::to_int(fault::ExitCode::kDegraded))
    FlightRecorder::global().dump();
  return result;
}

}  // namespace rr::campaign
