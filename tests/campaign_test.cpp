// Contract tests for the campaign service (DESIGN.md §11): cache ->
// resilient run -> publish.  The invariant under test throughout is
// byte-identity: a campaign's result bytes equal a standalone
// run_resilient of the same scenarios -- also after a killed run is
// resumed from its journal -- and a cache hit serves the populating
// run's bytes verbatim.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "campaign/cache.hpp"
#include "campaign/service.hpp"
#include "obs/metrics.hpp"
#include "util/fileio.hpp"
#include "util/flightrec.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_THREAD__)
#define RR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RR_TSAN 1
#endif
#endif

namespace rr {
namespace {

std::string tmp_dir(const std::string& stem) {
  const std::string dir =
      ::testing::TempDir() + stem + "." + std::to_string(::getpid());
  make_dirs(dir);
  return dir;
}

Json campaign_params(const std::string& salt) {
  Json p = Json::object();
  p.set("study", Json("campaign-unit"));
  p.set("salt", Json(salt));
  return p;
}

// Deterministic toy metrics with non-terminating binary fractions so
// byte-identity through the %.17g round trip actually bites.
Json scenario_metrics(int i) {
  Rng rng(engine::scenario_seed(0xc0ffeeULL, static_cast<std::uint64_t>(i)));
  Json o = Json::object();
  o.set("x", Json(rng.next_double() / 3.0));
  o.set("y", Json(rng.next_double() * 1e-7));
  return o;
}

engine::ResilientScenario plain_fn() {
  return [](int i, const engine::CancelToken&) { return scenario_metrics(i); };
}

campaign::CampaignSpec make_spec(const std::string& salt, int scenarios) {
  campaign::CampaignSpec spec;
  spec.name = "campaign_test";
  spec.params = campaign_params(salt);
  spec.scenarios = scenarios;
  spec.base_seed = 0xc0ffeeULL;
  return spec;
}

/// The standalone reference run of a spec (no journal on disk).
engine::ResilientReport reference_run(const campaign::CampaignSpec& spec,
                                      const engine::ResilientScenario& fn) {
  engine::SweepEngine eng({1});
  engine::ResilientConfig rcfg;
  rcfg.base_seed = spec.base_seed;
  return engine::run_resilient(eng, spec.scenarios, fn, nullptr, rcfg);
}

std::string reference_bytes(const campaign::CampaignSpec& spec,
                            const engine::ResilientScenario& fn) {
  std::ostringstream os;
  engine::write_entries_jsonl(reference_run(spec, fn).entries, os);
  return os.str();
}

std::uint64_t hit_count() {
  return obs::MetricsRegistry::global().counter("campaign.cache.hit").value();
}

// ---------------------------------------------------------------------------
// Service: resilient run vs the standalone bytes
// ---------------------------------------------------------------------------

TEST(CampaignService, InProcessModeMatchesSingleProcessBytes) {
  const auto spec = make_spec("in-process", 8);
  const std::string golden = reference_bytes(spec, plain_fn());

  campaign::ServiceConfig cfg;
  cfg.threads_per_worker = 2;
  cfg.work_dir = tmp_dir("campaign-inproc");
  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kClean);
  EXPECT_EQ(result.ok, 8);
  EXPECT_EQ(result.exit_code(), 0);
  EXPECT_EQ(result.stats.executed, 8);
  EXPECT_EQ(result.result_bytes, golden);

  // The report records the thread count the run actually used, and its
  // metrics block is the stored end-of-run snapshot: repeated calls are
  // byte-identical.
  const auto rep = campaign::campaign_report(spec, cfg, result);
  const Json doc = Json::parse(rep.json);
  EXPECT_EQ(doc.at("provenance").at("threads").as_int(), 2);
  ASSERT_NE(doc.at("metrics").find("journal.appends"), nullptr);
  EXPECT_EQ(doc.at("extra").at("campaign").at("executed").as_int(), 8);
  EXPECT_EQ(campaign::campaign_report(spec, cfg, result).json, rep.json);
}

/// A run killed mid-campaign (the journal crash hook's _Exit(137), the
/// same code a SIGKILL leaves) is recovered by rerunning on the same work
/// dir: everything journaled before the kill is served, not recomputed,
/// and the bytes equal an uninterrupted run's.
TEST(CampaignService, KilledRunResumesFromItsJournalByteIdentically) {
#ifdef RR_TSAN
  GTEST_SKIP() << "fork + threads trips TSan's die_after_fork";
#else
  const auto spec = make_spec("crash", 12);
  const std::string golden = reference_bytes(spec, plain_fn());
  campaign::ServiceConfig cfg;
  cfg.work_dir = tmp_dir("campaign-crash");

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Never return into the test runner from the child.
    try {
      ::setenv("RR_CRASH_AFTER_N", "3", 1);
      (void)campaign::run_campaign(spec, plain_fn(), cfg);
    } catch (...) {
    }
    std::_Exit(0);  // the crash hook should have fired first
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), fault::to_int(fault::ExitCode::kCrash));

  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kClean);
  EXPECT_EQ(result.ok, 12);
  EXPECT_EQ(result.stats.resumed, 3);
  EXPECT_EQ(result.stats.executed, 9);
  EXPECT_EQ(result.result_bytes, golden);
#endif
}

TEST(CampaignService, ReusedWorkDirResumesInsteadOfRecomputing) {
  const auto spec = make_spec("resume", 10);
  const engine::ResilientReport ref = reference_run(spec, plain_fn());
  const std::string golden = reference_bytes(spec, plain_fn());
  const std::string work = tmp_dir("campaign-resume");

  // A previous run journaled the first three scenarios.
  {
    engine::SweepJournal journal(work + "/journal.jsonl", spec.params, 10);
    for (int i = 0; i < 3; ++i)
      journal.append(*ref.entries[static_cast<std::size_t>(i)]);
  }

  campaign::ServiceConfig cfg;
  cfg.threads_per_worker = 2;
  cfg.work_dir = work;
  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kClean);
  EXPECT_EQ(result.stats.resumed, 3);
  EXPECT_EQ(result.stats.executed, 7);
  EXPECT_EQ(result.result_bytes, golden);
}

TEST(CampaignService, DegradedAndBudgetOutcomesFollowTheExitCodeContract) {
  const engine::ResilientScenario fn = [](int i,
                                          const engine::CancelToken&) {
    if (i == 3) throw engine::PermanentError("injected permanent fault");
    return scenario_metrics(i);
  };

  const auto spec = make_spec("degraded", 6);
  campaign::ServiceConfig cfg;
  cfg.threads_per_worker = 2;
  cfg.work_dir = tmp_dir("campaign-degraded");
  cfg.cache_dir = tmp_dir("campaign-degraded-cache");
  const auto result = campaign::run_campaign(spec, fn, cfg);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kDegraded);
  EXPECT_EQ(result.quarantined, 1);
  EXPECT_EQ(result.exit_code(), fault::to_int(fault::ExitCode::kDegraded));
  // Degraded runs are never published: re-querying is a miss.
  campaign::ResultCache cache(cfg.cache_dir);
  EXPECT_FALSE(cache
                   .lookup(engine::campaign_hash(spec.params), spec.params)
                   .has_value());

  const engine::ResilientScenario all_fail =
      [](int, const engine::CancelToken&) -> Json {
    throw engine::PermanentError("injected permanent fault");
  };
  const auto bspec = make_spec("budget", 8);
  campaign::ServiceConfig bcfg;
  bcfg.work_dir = tmp_dir("campaign-budget");
  bcfg.resilient.failure_budget = 1;
  bcfg.resilient.retry.max_attempts = 1;
  const auto bresult = campaign::run_campaign(bspec, all_fail, bcfg);
  EXPECT_EQ(bresult.outcome, engine::RunOutcome::kBudgetExceeded);
  EXPECT_EQ(bresult.exit_code(),
            fault::to_int(fault::ExitCode::kBudgetExceeded));
  EXPECT_GT(bresult.not_run, 0);
}

/// A degraded campaign leaves a flight-recorder postmortem behind.
TEST(CampaignService, DegradedRunDumpsTheFlightRecorder) {
  const engine::ResilientScenario fn = [](int i,
                                          const engine::CancelToken&) {
    if (i == 2) throw engine::PermanentError("injected permanent fault");
    return scenario_metrics(i);
  };
  const auto spec = make_spec("flightrec", 6);
  campaign::ServiceConfig cfg;
  cfg.work_dir = tmp_dir("campaign-flightrec");
  // Earlier campaigns in this process already armed a dump path; pin it
  // to this run's work dir so the assertion reads the right file.
  const std::string dump = cfg.work_dir + "/flightrec.json";
  FlightRecorder::global().set_dump_path(dump);
  const auto result = campaign::run_campaign(spec, fn, cfg);
  EXPECT_EQ(result.exit_code(), fault::to_int(fault::ExitCode::kDegraded));

  const Json doc = Json::parse(read_file(dump));
  EXPECT_EQ(doc.at("flightrec").as_string(), "rr-flightrec");
  // The ring captured the campaign's start mark and its degraded verdict.
  bool saw_start = false, saw_verdict = false;
  for (const Json& e : doc.at("events").as_array()) {
    if (e.at("kind").as_string() != "mark") continue;
    const std::string msg = e.at("msg").as_string();
    if (msg.find(result.campaign + " start") != std::string::npos)
      saw_start = true;
    if (msg == "campaign " + result.campaign + " degraded") saw_verdict = true;
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_verdict);
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

TEST(CampaignCache, RepeatQueryServesVerbatimBytesAndCountsOneHitPerScenario) {
  const int n = 9;
  const auto spec = make_spec("cache", n);
  campaign::ServiceConfig cfg;
  cfg.threads_per_worker = 2;
  cfg.work_dir = tmp_dir("campaign-cache-work");
  cfg.cache_dir = tmp_dir("campaign-cache");

  const auto first = campaign::run_campaign(spec, plain_fn(), cfg);
  ASSERT_EQ(first.outcome, engine::RunOutcome::kClean);
  ASSERT_FALSE(first.cache_hit);

  // Second query: a different work dir proves nothing is recomputed.
  campaign::ServiceConfig cfg2 = cfg;
  cfg2.work_dir = tmp_dir("campaign-cache-work2");
  const std::uint64_t hits_before = hit_count();
  const auto second = campaign::run_campaign(spec, plain_fn(), cfg2);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.stats.executed, 0);
  EXPECT_EQ(hit_count() - hits_before, static_cast<std::uint64_t>(n));

  // Byte-identity, result and report both: the hit serves the populating
  // run's artifacts verbatim.
  EXPECT_EQ(second.result_bytes, first.result_bytes);
  const std::string entry_dir = cfg.cache_dir + "/" + first.campaign;
  EXPECT_EQ(second.cached_report_json, read_file(entry_dir + "/report.json"));
  const auto report_pair = campaign::campaign_report(spec, cfg2, second);
  EXPECT_EQ(report_pair.json, second.cached_report_json);
  EXPECT_EQ(report_pair.markdown, read_file(entry_dir + "/report.md"));

  // Per-scenario counts survive the round trip through cached bytes.
  EXPECT_EQ(second.ok, n);
  ASSERT_EQ(second.entries.size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(second.entries[0].has_value());
}

TEST(CampaignCache, TamperedEntryDegradesToAMissNotWrongBytes) {
  const auto spec = make_spec("tamper", 4);
  const std::uint64_t id = engine::campaign_hash(spec.params);
  campaign::ResultCache cache(tmp_dir("campaign-tamper-cache"));
  EXPECT_FALSE(cache.lookup(id, spec.params).has_value());

  Json meta = Json::object();
  meta.set("cache", "rr-campaign-cache").set("version", 1)
      .set("campaign", engine::campaign_hex(id)).set("name", spec.name)
      .set("scenarios", 4).set("params", spec.params).set("outcome", "clean");
  ASSERT_TRUE(cache.publish(id, meta, "{}\n", "{}\n", "# r\n"));
  ASSERT_TRUE(cache.lookup(id, spec.params).has_value());
  // Racer publishing the same identity is idempotent.
  EXPECT_TRUE(cache.publish(id, meta, "{}\n", "{}\n", "# r\n"));

  // Different params under the same hash slot: identity mismatch => miss.
  EXPECT_FALSE(
      cache.lookup(id, campaign_params("something-else")).has_value());

  // Corrupt the meta: unreadable entries are misses, never wrong bytes.
  ASSERT_TRUE(
      write_file_atomic(cache.entry_dir(id) + "/meta.json", "not json"));
  EXPECT_FALSE(cache.lookup(id, spec.params).has_value());
}

}  // namespace
}  // namespace rr
