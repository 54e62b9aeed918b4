// Injectable filesystem environment (DESIGN.md §13).
//
// Every open/read/write/fsync/rename/flock the runtime performs for its
// durable artifacts -- the sweep journal, result stores, the campaign
// result cache, run reports -- goes through Env::current() instead of
// calling the OS directly.  The default environment is a passthrough to
// the real syscalls; tests and the chaos fuzzer install a ChaosEnv that
// injects the failures a petaflop-era machine room actually produces:
// full disks (ENOSPC), flaky devices (EIO), short and torn writes, fsync
// failures, file-descriptor exhaustion (EMFILE), failed renames, and
// bit-flipped reads.
//
// The active environment is process-global on purpose: the layers that
// persist state (util/fileio, sweep_engine/journal, campaign/cache,
// obs/report) live in different libraries, so one installation chaoses
// every one of them.
//
// Fault schedules are deterministic: every operation draws its fate from
// a counter-keyed SplitMix64 stream, so a single-threaded run replays an
// identical fault sequence for a given seed, and a multi-threaded run is
// deterministic modulo thread interleaving.  The invariants the chaos
// fuzzer asserts (bench/chaos_driver) are interleaving-independent:
// no crash, no hang, no partial cache entry, byte-identity when the run
// reports clean, and the fault::ExitCode contract when it does not.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace rr {

/// Counts of injected faults, by kind.  Plain atomics (not obs counters)
/// because util cannot depend on obs; the chaos driver mirrors the totals
/// into the `io.fault.*` metrics it reports.
struct FaultStats {
  std::atomic<std::uint64_t> injected{0};      ///< every injected failure
  std::atomic<std::uint64_t> eio{0};           ///< EIO on read/write/fsync
  std::atomic<std::uint64_t> enospc{0};        ///< ENOSPC (incl. sticky window)
  std::atomic<std::uint64_t> short_writes{0};  ///< write accepted a prefix
  std::atomic<std::uint64_t> torn_writes{0};   ///< prefix hit disk, then EIO
  std::atomic<std::uint64_t> open_failures{0}; ///< EMFILE/EIO on open
  std::atomic<std::uint64_t> rename_failures{0};
  std::atomic<std::uint64_t> read_corruptions{0};  ///< bit-flipped read
  std::atomic<std::uint64_t> lock_failures{0};
  std::atomic<std::uint64_t> ops{0};           ///< every routed operation
};

/// Filesystem operations the runtime persists state through.  POSIX
/// shape: negative return means failure with errno set, exactly like the
/// syscalls the default implementation forwards to.
class Env {
 public:
  virtual ~Env() = default;

  virtual int open(const std::string& path, int flags, int mode);
  virtual long read(int fd, void* buf, std::size_t n);
  virtual long write(int fd, const void* buf, std::size_t n);
  virtual int fsync(int fd);
  virtual int fdatasync(int fd);
  virtual int close(int fd);
  virtual int rename(const std::string& from, const std::string& to);
  virtual int unlink(const std::string& path);
  virtual int truncate(const std::string& path, long long length);
  virtual int mkdir(const std::string& path, int mode);
  /// flock(LOCK_EX) / flock(LOCK_UN).
  virtual int flock_ex(int fd);
  virtual int flock_un(int fd);

  /// The passthrough environment (real syscalls).  Always valid.
  static Env& real();
  /// The active environment every fileio/journal/cache operation uses.
  static Env& current();
  /// Install `env` (nullptr restores the real one); returns the previous
  /// environment so callers can restore it.
  static Env* install(Env* env);
};

/// What kind of fault a ChaosEnv decision produced (for tests).
enum class FaultKind {
  kNone,
  kEio,
  kEnospc,
  kShortWrite,
  kTornWrite,
  kOpenFail,
  kRenameFail,
  kReadCorrupt,
  kLockFail,
};

/// One seeded fault schedule.  `fault_rate` is the per-operation
/// injection probability; `max_faults` bounds how many *decisions* fire
/// (a sticky ENOSPC window consumes one decision when armed, then fails
/// write-path operations for `enospc_window_ops` further operations
/// without consuming more budget) -- a bounded schedule is how the fuzzer
/// keeps most schedules recoverable.  `read_corrupt_rate` governs
/// bit-flips on reads separately from the failure rate, because a
/// corrupted read exercises the fail-closed reader paths rather than the
/// retry/degrade writer paths.
struct ChaosConfig {
  std::uint64_t seed = 1;
  double fault_rate = 0.05;
  double read_corrupt_rate = 0.0;
  int max_faults = -1;          ///< negative = unlimited
  bool allow_enospc = true;     ///< permit the sticky hard fault
  int enospc_window_ops = 24;   ///< ops the disk stays full once ENOSPC fires
};

/// Deterministic fault-injecting Env wrapping a base environment
/// (the real one unless a test says otherwise).
class ChaosEnv : public Env {
 public:
  explicit ChaosEnv(ChaosConfig cfg, Env* base = nullptr);

  int open(const std::string& path, int flags, int mode) override;
  long read(int fd, void* buf, std::size_t n) override;
  long write(int fd, const void* buf, std::size_t n) override;
  int fsync(int fd) override;
  int fdatasync(int fd) override;
  int close(int fd) override;
  int rename(const std::string& from, const std::string& to) override;
  int unlink(const std::string& path) override;
  int truncate(const std::string& path, long long length) override;
  int mkdir(const std::string& path, int mode) override;
  int flock_ex(int fd) override;
  int flock_un(int fd) override;

  const FaultStats& stats() const { return stats_; }
  const ChaosConfig& config() const { return cfg_; }

 private:
  /// Draw the fate of the next operation.  `write_path` marks operations
  /// a full disk fails (write/fsync/creat/mkdir/rename/truncate).
  FaultKind decide(bool write_path, bool is_read);
  bool consume_budget();

  ChaosConfig cfg_;
  Env* base_;
  FaultStats stats_;
  std::atomic<std::uint64_t> op_{0};            ///< decision counter
  std::atomic<std::uint64_t> enospc_until_{0};  ///< sticky window end (op index)
  std::atomic<int> budget_used_{0};
};

/// RAII installation: installs `env` for the scope, restores the previous
/// environment on exit.  The chaos fuzzer wraps each schedule in one.
class ScopedEnv {
 public:
  explicit ScopedEnv(Env* env) : prev_(Env::install(env)) {}
  ~ScopedEnv() { Env::install(prev_); }

  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  Env* prev_;
};

}  // namespace rr
