// Chaos-hardening tests (DESIGN.md §13): the injectable fault
// environment itself, the per-layer failure policies it exercises
// (fileio diagnostics, journal retry/degrade/quarantine, cache
// revalidation and abort-clean publish), and an in-process miniature of
// the campaign-level chaos fuzzer that bench/chaos_driver.cpp runs at
// full scale in CI.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/service.hpp"
#include "obs/metrics.hpp"
#include "sweep_engine/journal.hpp"
#include "sweep_engine/resilient.hpp"
#include "util/env.hpp"
#include "util/fileio.hpp"
#include "util/rng.hpp"

namespace rr {
namespace {

std::string tmp_dir(const std::string& stem) {
  const std::string dir =
      ::testing::TempDir() + stem + "." + std::to_string(::getpid());
  make_dirs(dir);
  return dir;
}

std::string tmp_path(const std::string& stem) {
  return ::testing::TempDir() + stem + "." + std::to_string(::getpid());
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// Deterministic toy metrics with non-terminating binary fractions, so
// byte-identity through the %.17g round trip actually bites.
Json scenario_metrics(int i) {
  Rng rng(engine::scenario_seed(0xfeedULL, static_cast<std::uint64_t>(i)));
  Json o = Json::object();
  o.set("x", Json(rng.next_double() / 3.0));
  o.set("y", Json(rng.next_double() * 1e-7));
  return o;
}

engine::ResilientScenario plain_fn() {
  return [](int i, const engine::CancelToken&) { return scenario_metrics(i); };
}

engine::JournalEntry demo_entry(int i) {
  engine::JournalEntry e;
  e.index = i;
  e.status = engine::ScenarioStatus::kOk;
  e.seed = static_cast<std::uint64_t>(1000 + i);
  e.metrics = scenario_metrics(i);
  return e;
}

Json demo_params(const std::string& salt) {
  Json p = Json::object();
  p.set("study", Json("chaos-unit"));
  p.set("salt", Json(salt));
  return p;
}

/// Fails one chosen operation kind with a chosen errno, every time (or
/// only the first `times` calls when bounded); everything else passes
/// through to the real filesystem.
class FailOpEnv : public Env {
 public:
  enum class Op { kWrite, kFsync, kFdatasync, kRename, kOpen };

  FailOpEnv(Op op, int err, int times = -1)
      : op_(op), err_(err), left_(times) {}

  int open(const std::string& path, int flags, int mode) override {
    if (should_fail(Op::kOpen)) return fail();
    return Env::open(path, flags, mode);
  }
  long write(int fd, const void* buf, std::size_t n) override {
    if (should_fail(Op::kWrite)) return fail();
    return Env::write(fd, buf, n);
  }
  int fsync(int fd) override {
    if (should_fail(Op::kFsync)) return fail();
    return Env::fsync(fd);
  }
  int fdatasync(int fd) override {
    if (should_fail(Op::kFdatasync)) return fail();
    return Env::fdatasync(fd);
  }
  int rename(const std::string& from, const std::string& to) override {
    if (should_fail(Op::kRename)) return fail();
    return Env::rename(from, to);
  }

  int failures() const { return failures_; }

 private:
  bool should_fail(Op op) {
    if (op != op_) return false;
    if (left_ == 0) return false;
    if (left_ > 0) --left_;
    ++failures_;
    return true;
  }
  int fail() {
    errno = err_;
    return -1;
  }

  Op op_;
  int err_;
  int left_;
  int failures_ = 0;
};

// ---------------------------------------------------------------------------
// The chaos environment itself.
// ---------------------------------------------------------------------------

TEST(ChaosEnvTest, SameSeedReplaysTheSameFaultSequence) {
  const std::string path = tmp_path("chaos_env_replay");
  std::vector<bool> outcomes[2];
  ChaosConfig cfg;
  cfg.seed = 7;
  cfg.fault_rate = 0.25;
  for (int run = 0; run < 2; ++run) {
    ChaosEnv env(cfg);
    ScopedEnv scope(&env);
    for (int i = 0; i < 120; ++i)
      outcomes[run].push_back(write_file_atomic(path, "payload payload\n"));
    EXPECT_GT(env.stats().injected.load(), 0u);
    if (run == 1) {
      ChaosEnv fresh(cfg);  // never used: proves config equality, not state
      EXPECT_EQ(fresh.stats().injected.load(), 0u);
    }
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
}

TEST(ChaosEnvTest, MaxFaultsBoundsInjections) {
  ChaosConfig cfg;
  cfg.seed = 11;
  cfg.fault_rate = 1.0;   // every decision wants to fire...
  cfg.max_faults = 3;     // ...but only three may
  cfg.allow_enospc = false;  // sticky window would inject past the budget
  ChaosEnv env(cfg);
  ScopedEnv scope(&env);
  const std::string path = tmp_path("chaos_env_budget");
  for (int i = 0; i < 40; ++i) (void)write_file_atomic(path, "x\n");
  EXPECT_EQ(env.stats().injected.load(), 3u);
  EXPECT_TRUE(write_file_atomic(path, "calm after the budget\n"));
}

TEST(ChaosEnvTest, ScopedEnvInstallsAndRestores) {
  EXPECT_EQ(&Env::current(), &Env::real());
  {
    ChaosEnv env(ChaosConfig{});
    ScopedEnv scope(&env);
    EXPECT_EQ(&Env::current(), &env);
  }
  EXPECT_EQ(&Env::current(), &Env::real());
}

// ---------------------------------------------------------------------------
// fileio diagnostics (satellite: errno + strerror + path in every error).
// ---------------------------------------------------------------------------

TEST(FileIoChaosTest, WriteFileAtomicReportsErrnoAndPath) {
  FailOpEnv env(FailOpEnv::Op::kFsync, EIO);
  ScopedEnv scope(&env);
  const std::string path = tmp_path("fileio_fsync_fail");
  IoError err;
  EXPECT_FALSE(write_file_atomic(path, "doomed\n", &err));
  EXPECT_EQ(err.errnum, EIO);
  EXPECT_NE(err.detail.find("fsync"), std::string::npos) << err.detail;
  EXPECT_NE(err.detail.find(path), std::string::npos) << err.detail;
  EXPECT_NE(err.detail.find(std::strerror(EIO)), std::string::npos)
      << err.detail;
}

TEST(FileIoChaosTest, AppendLineFsyncReportsFdatasyncFailure) {
  const std::string path = tmp_path("fileio_append_fail");
  const int fd = Env::real().open(path, O_CREAT | O_WRONLY | O_APPEND, 0644);
  ASSERT_GE(fd, 0);
  FailOpEnv env(FailOpEnv::Op::kFdatasync, ENOSPC);
  ScopedEnv scope(&env);
  IoError err;
  EXPECT_FALSE(append_line_fsync(fd, "{\"a\":1}", &err));
  EXPECT_EQ(err.errnum, ENOSPC);
  EXPECT_NE(err.detail.find("fdatasync"), std::string::npos) << err.detail;
  EXPECT_NE(err.detail.find(std::strerror(ENOSPC)), std::string::npos)
      << err.detail;
  Env::real().close(fd);
}

// ---------------------------------------------------------------------------
// Journal failure policy: transient retry, permanent degrade, mid-file
// quarantine -- a full disk costs durability, never the run.
// ---------------------------------------------------------------------------

TEST(JournalChaosTest, TransientFailuresAreRetriedAndCounted) {
  const std::string path = tmp_path("journal_transient");
  const Json params = demo_params("transient");
  engine::SweepJournal journal(path, params, 4);
  const std::uint64_t retried_before = counter_value("io.fault.retried");
  FailOpEnv env(FailOpEnv::Op::kFdatasync, EIO, /*times=*/1);
  ScopedEnv scope(&env);
  journal.append(demo_entry(0));
  EXPECT_FALSE(journal.degraded());
  EXPECT_EQ(env.failures(), 1);
  EXPECT_GT(counter_value("io.fault.retried"), retried_before);
}

TEST(JournalChaosTest, PermanentAppendFailureDegradesToMemoryOnly) {
  const std::string path = tmp_path("journal_degrade");
  const Json params = demo_params("degrade");
  engine::SweepJournal journal(path, params, 4);
  const std::uint64_t degraded_before = counter_value("io.fault.degraded");
  {
    FailOpEnv env(FailOpEnv::Op::kWrite, ENOSPC);
    ScopedEnv scope(&env);
    journal.append(demo_entry(0));  // never throws
  }
  EXPECT_TRUE(journal.degraded());
  EXPECT_GT(counter_value("io.fault.degraded"), degraded_before);
  // The entry survived in memory: the run can still finish.
  ASSERT_TRUE(journal.entry(0).has_value());
  EXPECT_EQ(journal.entry(0)->index, 0);
  // Appends after degradation stay memory-only and harmless.
  journal.append(demo_entry(1));
  EXPECT_EQ(journal.completed_count(), 2u);
}

TEST(JournalChaosTest, DegradedJournalClampsRunOutcome) {
  const std::string path = tmp_path("journal_outcome_clamp");
  const Json params = demo_params("clamp");
  engine::SweepJournal journal(path, params, 6);
  FailOpEnv env(FailOpEnv::Op::kWrite, ENOSPC);
  ScopedEnv scope(&env);
  engine::SweepEngine eng({1});
  const engine::ResilientReport rep =
      engine::run_resilient(eng, 6, plain_fn(), &journal);
  EXPECT_EQ(rep.ok, 6);  // every scenario still completed
  EXPECT_TRUE(journal.degraded());
  EXPECT_EQ(rep.outcome, engine::RunOutcome::kDegraded);
  EXPECT_EQ(rep.exit_code(), 3);
}

TEST(JournalChaosTest, MidFileTamperFailsClosedWithLineDiagnostics) {
  const std::string path = tmp_path("journal_midfile");
  const Json params = demo_params("midfile");
  {
    engine::SweepJournal journal(path, params, 4);
    for (int i = 0; i < 3; ++i) journal.append(demo_entry(i));
  }
  // Flip a semantic byte in the first record (line 2 of the file): the
  // JSON stays parseable, only the record checksum can catch it.
  std::string text = read_file(path);
  const std::size_t at = text.find("\"attempts\":1");
  ASSERT_NE(at, std::string::npos);
  text[at + std::strlen("\"attempts\":")] = '7';
  ASSERT_TRUE(write_file_atomic(path, text));

  try {
    engine::read_journal_entries(path, params, 4);
    FAIL() << "tampered journal was accepted";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
}

TEST(JournalChaosTest, ResumeQuarantinesTamperedFileAndStartsFresh) {
  const std::string path = tmp_path("journal_quarantine");
  const Json params = demo_params("quarantine");
  {
    engine::SweepJournal journal(path, params, 4);
    for (int i = 0; i < 3; ++i) journal.append(demo_entry(i));
  }
  std::string text = read_file(path);
  const std::size_t at = text.find("\"attempts\":1");
  ASSERT_NE(at, std::string::npos);
  text[at + std::strlen("\"attempts\":")] = '7';
  ASSERT_TRUE(write_file_atomic(path, text));

  const std::uint64_t corrupt_before = counter_value("journal.corrupt");
  engine::SweepJournal journal(path, params, 4);
  EXPECT_TRUE(journal.quarantined());
  EXPECT_FALSE(journal.degraded());
  EXPECT_EQ(journal.completed_count(), 0u);  // poisoned entries not trusted
  EXPECT_GT(counter_value("journal.corrupt"), corrupt_before);
  // The poisoned bytes were moved aside for the postmortem, and the
  // journal is writable again.
  EXPECT_EQ(read_file(path + ".corrupt"), text);
  journal.append(demo_entry(0));
  EXPECT_FALSE(journal.degraded());
}

// ---------------------------------------------------------------------------
// Cache failure policy: corrupt entries are misses, failed publishes
// leave nothing behind.
// ---------------------------------------------------------------------------

TEST(CacheChaosTest, BitFlippedResultBytesAreAMiss) {
  const std::string root = tmp_dir("cache_bitflip");
  const Json params = demo_params("bitflip");
  const std::uint64_t campaign = engine::campaign_hash(params);
  campaign::ResultCache cache(root);
  Json meta = Json::object();
  meta.set("cache", "rr-campaign-cache").set("version", 1)
      .set("campaign", engine::campaign_hex(campaign))
      .set("name", "chaos_test").set("scenarios", 2).set("params", params)
      .set("outcome", "clean");
  const std::string result = "{\"index\":0}\n{\"index\":1}\n";
  ASSERT_TRUE(cache.publish(campaign, meta, result, "{}\n", "# report\n"));
  ASSERT_TRUE(cache.lookup(campaign, params).has_value());

  // One flipped bit in the cached result bytes.
  const std::string path = cache.entry_dir(campaign) + "/result.jsonl";
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(write_file_atomic(path, bytes));

  const std::uint64_t corrupt_before = counter_value("campaign.cache.corrupt");
  EXPECT_FALSE(cache.lookup(campaign, params).has_value());
  EXPECT_GT(counter_value("campaign.cache.corrupt"), corrupt_before);
}

TEST(CacheChaosTest, VerifiedHitCarriesTheEntryBytes) {
  const std::string root = tmp_dir("cache_hit_bytes");
  const Json params = demo_params("hitbytes");
  const std::uint64_t campaign = engine::campaign_hash(params);
  campaign::ResultCache cache(root);
  Json meta = Json::object();
  meta.set("cache", "rr-campaign-cache").set("version", 1)
      .set("campaign", engine::campaign_hex(campaign))
      .set("name", "chaos_test").set("scenarios", 1).set("params", params)
      .set("outcome", "clean");
  ASSERT_TRUE(cache.publish(campaign, meta, "{\"index\":0}\n", "{\"r\":1}\n",
                            "# md\n"));
  const auto hit = cache.lookup(campaign, params);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result_bytes, "{\"index\":0}\n");
  EXPECT_EQ(hit->report_json, "{\"r\":1}\n");
  EXPECT_EQ(hit->report_md, "# md\n");
}

TEST(CacheChaosTest, FailedPublishLeavesNoPartialEntry) {
  const std::string root = tmp_dir("cache_abort");
  const Json params = demo_params("abort");
  const std::uint64_t campaign = engine::campaign_hash(params);
  campaign::ResultCache cache(root);
  Json meta = Json::object();
  meta.set("cache", "rr-campaign-cache").set("version", 1)
      .set("campaign", engine::campaign_hex(campaign))
      .set("name", "chaos_test").set("scenarios", 1).set("params", params)
      .set("outcome", "clean");
  {
    FailOpEnv env(FailOpEnv::Op::kRename, EIO);
    ScopedEnv scope(&env);
    EXPECT_FALSE(cache.publish(campaign, meta, "{\"index\":0}\n", "{}\n",
                               "# md\n"));
  }
  struct ::stat st{};
  EXPECT_NE(::stat(cache.entry_dir(campaign).c_str(), &st), 0)
      << "partial cache entry escaped a failed publish";
  EXPECT_FALSE(cache.lookup(campaign, params).has_value());
  // And the same publish succeeds once the fault clears.
  EXPECT_TRUE(cache.publish(campaign, meta, "{\"index\":0}\n", "{}\n",
                            "# md\n"));
  EXPECT_TRUE(cache.lookup(campaign, params).has_value());
}

// ---------------------------------------------------------------------------
// Mini chaos fuzz: the driver's invariants at unit-test scale; campaigns
// run in-process, so it runs under every sanitizer.
// ---------------------------------------------------------------------------

TEST(ChaosFuzzTest, InProcessCampaignsSurviveSeededSchedules) {
  const std::string base = tmp_dir("chaos_mini_fuzz");
  campaign::CampaignSpec spec;
  spec.name = "chaos_mini";
  spec.params = demo_params("mini-fuzz");
  spec.scenarios = 6;
  spec.base_seed = 0xfeedULL;
  const std::uint64_t campaign = engine::campaign_hash(spec.params);

  // Fault-free reference bytes.
  campaign::ServiceConfig ref_cfg;
  ref_cfg.work_dir = base + "/ref";
  const std::string reference =
      campaign::run_campaign(spec, plain_fn(), ref_cfg).result_bytes;
  ASSERT_FALSE(reference.empty());

  int clean = 0, degraded = 0;
  for (std::uint64_t s = 0; s < 16; ++s) {
    const std::string dir = base + "/s" + std::to_string(s);
    campaign::ServiceConfig cfg;
    cfg.work_dir = dir + "/work";
    cfg.cache_dir = dir + "/cache";
    ChaosConfig ccfg;
    ccfg.seed = 0x517e0000ULL + s;
    ccfg.fault_rate = 0.08;
    ccfg.read_corrupt_rate = 0.02;
    ccfg.max_faults = 5;
    ChaosEnv chaos(ccfg);
    campaign::CampaignResult result;
    {
      ScopedEnv scope(&chaos);
      // Invariant: no escaped exception, whatever the schedule injects.
      ASSERT_NO_THROW(result = campaign::run_campaign(spec, plain_fn(), cfg))
          << "schedule seed " << ccfg.seed;
    }
    if (result.outcome == engine::RunOutcome::kClean) {
      ++clean;
      // Invariant: a clean run is byte-identical to the fault-free one.
      EXPECT_EQ(result.result_bytes, reference)
          << "schedule seed " << ccfg.seed;
    } else {
      ++degraded;
      EXPECT_EQ(result.exit_code(), 3) << "schedule seed " << ccfg.seed;
    }
    // Invariant: whatever happened, the cache holds either nothing or a
    // complete, verifiable entry (checked with faults off).
    campaign::ResultCache cache(cfg.cache_dir);
    struct ::stat st{};
    if (::stat(cache.entry_dir(campaign).c_str(), &st) == 0) {
      const auto hit = cache.lookup(campaign, spec.params);
      ASSERT_TRUE(hit.has_value())
          << "partial cache entry, schedule seed " << ccfg.seed;
      EXPECT_EQ(hit->result_bytes, reference);
    }
  }
  // The schedule mix must actually exercise both halves of the contract;
  // these hold for the pinned seeds above.
  EXPECT_GT(clean, 0);
  EXPECT_GT(degraded, 0);
}

}  // namespace
}  // namespace rr
