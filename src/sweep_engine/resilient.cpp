#include "sweep_engine/resilient.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <ostream>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"
#include "util/expect.hpp"
#include "util/fileio.hpp"
#include "util/log.hpp"

namespace rr::engine {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

// Retry-taxonomy instrumentation (DESIGN.md §10): every terminal status
// and every retry/backoff is counted, and entries served from a resumed
// journal credit journal.resume_hits.
struct SweepMetrics {
  obs::Counter& ok;
  obs::Counter& retries;
  obs::Counter& timeouts;
  obs::Counter& quarantined;
  obs::Counter& budget_aborts;
  obs::Counter& resume_hits;
  obs::Counter& seed_rejects;
  obs::Histogram& backoff_us;

  static SweepMetrics& instance() {
    auto& reg = obs::MetricsRegistry::global();
    static SweepMetrics m{reg.counter("sweep.ok"),
                          reg.counter("sweep.retries"),
                          reg.counter("sweep.timeouts"),
                          reg.counter("sweep.quarantined"),
                          reg.counter("sweep.budget_aborts"),
                          reg.counter("journal.resume_hits"),
                          reg.counter("journal.seed_rejects"),
                          reg.histogram("sweep.backoff_us",
                                        obs::latency_bounds_us())};
    return m;
  }
};

}  // namespace

const char* to_string(RunOutcome o) {
  switch (o) {
    case RunOutcome::kClean: return "clean";
    case RunOutcome::kDegraded: return "degraded";
    case RunOutcome::kBudgetExceeded: return "failure-budget-exceeded";
  }
  return "?";
}

int exit_code(RunOutcome o) {
  switch (o) {
    case RunOutcome::kClean: return fault::to_int(fault::ExitCode::kClean);
    case RunOutcome::kDegraded:
      return fault::to_int(fault::ExitCode::kDegraded);
    case RunOutcome::kBudgetExceeded:
      return fault::to_int(fault::ExitCode::kBudgetExceeded);
  }
  return fault::to_int(fault::ExitCode::kError);
}

void ResilientReport::print(std::ostream& os) const {
  os << "sweep summary: " << entries.size() << " scenarios: " << ok << " ok";
  if (retried > 0) os << " (" << retried << " retried)";
  os << ", " << timed_out << " timed out, " << quarantined << " quarantined";
  if (resumed > 0) os << ", " << resumed << " resumed from journal";
  if (not_run > 0) os << ", " << not_run << " not run (budget abort)";
  os << "\n";
  for (const auto& e : entries) {
    if (!e || e->ok()) continue;
    os << "  " << to_string(e->status) << ": index " << e->index << " seed "
       << e->seed;
    if (e->status == ScenarioStatus::kQuarantined)
      os << " class " << fault::to_string(e->error_class);
    os << " after " << e->attempts
       << (e->attempts == 1 ? " attempt" : " attempts") << ": " << e->error
       << "\n";
  }
  os << "outcome: " << to_string(outcome) << " (exit " << exit_code() << ")\n";
}

void ResilientReport::log() const {
  RR_INFO("sweep summary: " << entries.size() << " scenarios: " << ok
                            << " ok (" << retried << " retried), " << timed_out
                            << " timed out, " << quarantined << " quarantined, "
                            << resumed << " resumed, " << not_run
                            << " not run; outcome " << to_string(outcome));
  for (const auto& e : entries) {
    if (!e || e->ok()) continue;
    RR_WARN(to_string(e->status)
            << ": index " << e->index << " seed " << e->seed << " class "
            << fault::to_string(e->error_class) << " after " << e->attempts
            << (e->attempts == 1 ? " attempt" : " attempts") << ": "
            << e->error);
  }
  if (outcome == RunOutcome::kBudgetExceeded)
    RR_ERROR("sweep aborted: failure budget exceeded after "
             << timed_out + quarantined << " failures");
}

ResilientReport run_resilient(SweepEngine& eng, int n,
                              const ResilientScenario& fn,
                              SweepJournal* journal,
                              const ResilientConfig& cfg) {
  RR_EXPECTS(n >= 0);
  RR_EXPECTS(cfg.retry.max_attempts >= 1);
  RR_EXPECTS(!journal || journal->scenarios() == n);

  ResilientReport report;
  report.entries.resize(static_cast<std::size_t>(n));

  const auto seed_of = [&cfg](int i) {
    return cfg.seed_of ? cfg.seed_of(i)
                       : scenario_seed(cfg.base_seed,
                                       static_cast<std::uint64_t>(i));
  };

  // Failures counted against the budget include ones a resumed journal
  // already recorded: the budget is a property of the campaign, not of
  // one process's lifetime.
  std::atomic<int> failures{0};
  std::atomic<bool> abort{false};
  SweepMetrics& sm = SweepMetrics::instance();
  if (journal) {
    for (int i = 0; i < n; ++i) {
      auto e = journal->entry(i);
      if (!e) continue;
      if (e->seed != seed_of(i)) {
        // A checksummed record with the wrong derived seed is not bit
        // rot -- it was journaled under a different seeding scheme.
        // Serving its metrics would break the determinism contract, so
        // the scenario is recomputed instead.
        sm.seed_rejects.inc();
        RR_WARN("journal " << journal->path() << ": index " << i
                           << " journaled with seed " << e->seed
                           << " but the campaign derives " << seed_of(i)
                           << "; recomputing");
        continue;
      }
      report.entries[static_cast<std::size_t>(i)] = std::move(e);
      sm.resume_hits.inc();
      if (!report.entries[static_cast<std::size_t>(i)]->ok())
        failures.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const auto budget_tripped = [&] {
    return cfg.failure_budget >= 0 &&
           failures.load(std::memory_order_relaxed) > cfg.failure_budget;
  };
  if (budget_tripped()) abort.store(true, std::memory_order_release);

  // Watchdog state: per-index cancel tokens plus start/finish stamps the
  // watchdog thread scans.  deque: CancelToken is not movable.
  std::deque<CancelToken> tokens(static_cast<std::size_t>(n));
  std::vector<std::atomic<std::int64_t>> started_ns(
      static_cast<std::size_t>(n));
  std::vector<std::atomic<bool>> finished(static_cast<std::size_t>(n));
  std::atomic<bool> batch_done{false};

  std::thread watchdog;
  if (cfg.deadline.count() > 0 && n > 0) {
    const std::int64_t deadline_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(cfg.deadline)
            .count();
    const auto scan_period = std::max<std::chrono::milliseconds>(
        std::chrono::milliseconds(1), cfg.deadline / 8);
    watchdog = std::thread([&, deadline_ns, scan_period] {
      while (!batch_done.load(std::memory_order_acquire)) {
        const std::int64_t now = now_ns();
        for (int i = 0; i < n; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          const std::int64_t t0 =
              started_ns[idx].load(std::memory_order_acquire);
          if (t0 != 0 && !finished[idx].load(std::memory_order_acquire) &&
              now - t0 > deadline_ns)
            tokens[idx].cancel();
        }
        std::this_thread::sleep_for(scan_period);
      }
    });
  }

  std::mutex entries_mu;  // report.entries slots are per-index, but the
                          // counters below are shared
  const auto worker = [&](int i) {
    const auto idx = static_cast<std::size_t>(i);
    if (report.entries[idx]) return;  // resumed from the journal

    JournalEntry entry;
    entry.index = i;
    entry.seed = seed_of(i);

    started_ns[idx].store(now_ns(), std::memory_order_release);
    int attempts = 0;
    while (true) {
      ++attempts;
      try {
        Json metrics = fn(i, tokens[idx]);
        entry.status = ScenarioStatus::kOk;
        entry.metrics = std::move(metrics);
        break;
      } catch (...) {
        const std::exception_ptr err = std::current_exception();
        if (tokens[idx].cancelled()) {
          // The watchdog fired and the scenario bailed out: record the
          // overrun as such, whatever it happened to throw on the way.
          entry.status = ScenarioStatus::kTimedOut;
          entry.error_class = fault::ErrorClass::kTransient;
          entry.error = "deadline " + std::to_string(cfg.deadline.count()) +
                        " ms exceeded";
          break;
        }
        const fault::ErrorClass cls = classify(err);
        if (cls == fault::ErrorClass::kTransient &&
            attempts < cfg.retry.max_attempts &&
            !abort.load(std::memory_order_acquire)) {
          const double backoff_us = cfg.retry.backoff_after_us(attempts);
          sm.retries.inc();
          sm.backoff_us.observe(backoff_us);
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::micro>(backoff_us));
          continue;
        }
        entry.status = ScenarioStatus::kQuarantined;
        entry.error_class = cls;
        entry.error = describe(err);
        break;
      }
    }
    entry.attempts = attempts;
    switch (entry.status) {
      case ScenarioStatus::kOk: sm.ok.inc(); break;
      case ScenarioStatus::kTimedOut: sm.timeouts.inc(); break;
      case ScenarioStatus::kQuarantined: sm.quarantined.inc(); break;
    }
    finished[idx].store(true, std::memory_order_release);

    // Journal before publishing: once append() returns the record is
    // durable, so a crash after this point costs nothing.  The process
    // crash hook (RR_CRASH_AFTER_N) fires inside append, right after the
    // fsync -- exactly the boundary a SIGKILL test wants.
    if (journal) journal->append(entry);
    {
      std::lock_guard lock(entries_mu);
      report.entries[idx] = std::move(entry);
    }
    if (!report.entries[idx]->ok()) {
      failures.fetch_add(1, std::memory_order_relaxed);
      if (budget_tripped()) abort.store(true, std::memory_order_release);
    }
  };

  // The pool fans out over the not-yet-journaled indices only; slots
  // are keyed by index and seeds derive from the index, so a resumed
  // run's results match an uninterrupted one's.
  std::vector<int> todo;
  for (int i = 0; i < n; ++i)
    if (!report.entries[static_cast<std::size_t>(i)]) todo.push_back(i);
  if (!todo.empty())
    eng.pool().for_each_index(
        static_cast<int>(todo.size()),
        [&](int j) { worker(todo[static_cast<std::size_t>(j)]); }, &abort);

  batch_done.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();

  for (int i = 0; i < n; ++i) {
    const auto& e = report.entries[static_cast<std::size_t>(i)];
    if (!e) {
      ++report.not_run;
      continue;
    }
    switch (e->status) {
      case ScenarioStatus::kOk:
        ++report.ok;
        if (e->attempts > 1) ++report.retried;
        break;
      case ScenarioStatus::kTimedOut: ++report.timed_out; break;
      case ScenarioStatus::kQuarantined: ++report.quarantined; break;
    }
  }
  if (journal) {
    // Entries that were already in the journal when this process started:
    // their worker returned before stamping started_ns.
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (report.entries[idx] &&
          started_ns[idx].load(std::memory_order_relaxed) == 0)
        ++report.resumed;
    }
  }

  if (abort.load(std::memory_order_acquire) && budget_tripped()) {
    report.outcome = RunOutcome::kBudgetExceeded;
    sm.budget_aborts.inc();
  } else if (report.timed_out + report.quarantined > 0) {
    report.outcome = RunOutcome::kDegraded;
  } else if (journal && journal->degraded()) {
    // Every scenario ran, but the journal lost durability along the way:
    // the results are complete in memory yet nothing would survive a
    // crash, so the run must not report clean (DESIGN.md §13).
    report.outcome = RunOutcome::kDegraded;
    RR_WARN("run degraded: journal " << journal->path()
                                     << " fell back to memory-only");
  } else {
    report.outcome = RunOutcome::kClean;
  }
  report.log();
  return report;
}

void write_entries_jsonl(
    const std::vector<std::optional<JournalEntry>>& entries, std::ostream& os) {
  for (const auto& e : entries) {
    if (!e) continue;
    to_json(*e).dump_to(os);
    os << '\n';
  }
}

bool write_entries_file(
    const std::vector<std::optional<JournalEntry>>& entries,
    const std::string& path) {
  std::ostringstream os;
  write_entries_jsonl(entries, os);
  return write_file_atomic(path, os.str());
}

}  // namespace rr::engine
