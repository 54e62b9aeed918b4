#include "util/flightrec.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace rr {

namespace {

// Buffered fd writer built on raw write(2): the only state is on the
// stack, so it stays async-signal-safe.
struct FdWriter {
  int fd;
  char buf[1024];
  std::size_t pos = 0;
  bool ok = true;

  explicit FdWriter(int fd_in) : fd(fd_in) {}

  void flush() noexcept {
    std::size_t off = 0;
    while (ok && off < pos) {
      const ssize_t w = ::write(fd, buf + off, pos - off);
      if (w < 0) {
        if (errno == EINTR) continue;
        ok = false;
        break;
      }
      off += static_cast<std::size_t>(w);
    }
    pos = 0;
  }

  void ch(char c) noexcept {
    if (pos == sizeof buf) flush();
    buf[pos++] = c;
  }

  void lit(const char* s) noexcept {
    for (; *s; ++s) ch(*s);
  }

  void u64(std::uint64_t v) noexcept {
    char tmp[20];
    int n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) ch(tmp[--n]);
  }

  /// %.17g is not signal-safe; integers (the common case: counters,
  /// log levels) print exactly, everything else gets six
  /// fixed decimals -- plenty for a postmortem.
  void num(double v) noexcept {
    if (v != v) {  // NaN has no JSON spelling
      lit("0");
      return;
    }
    if (v < 0) {
      ch('-');
      v = -v;
    }
    if (v > 9.2e18) {  // beyond uint64: clamp rather than misprint
      lit("9.2e18");
      return;
    }
    const auto ip = static_cast<std::uint64_t>(v);
    u64(ip);
    const double frac = v - static_cast<double>(ip);
    if (frac > 0.0) {
      ch('.');
      auto rest = static_cast<std::uint64_t>(frac * 1e6 + 0.5);
      char tmp[6];
      for (int i = 5; i >= 0; --i) {
        tmp[i] = static_cast<char>('0' + rest % 10);
        rest /= 10;
      }
      for (const char c : tmp) ch(c);
    }
  }

  void str(const char* s, std::size_t n) noexcept {
    ch('"');
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<unsigned char>(s[i]);
      if (c == '"' || c == '\\') {
        ch('\\');
        ch(static_cast<char>(c));
      } else if (c < 0x20) {
        lit("\\u00");
        const char* hex = "0123456789abcdef";
        ch(hex[c >> 4]);
        ch(hex[c & 0xf]);
      } else {
        ch(static_cast<char>(c));
      }
    }
    ch('"');
  }
};

void on_sigusr1(int) {
  // global() was constructed by install_sigusr1(); dump() touches only
  // atomics and raw syscalls.
  (void)FlightRecorder::global().dump();
}

}  // namespace

const char* to_string(FlightKind k) {
  switch (k) {
    case FlightKind::kLog: return "log";
    case FlightKind::kMetric: return "metric";
    case FlightKind::kMark: return "mark";
  }
  return "?";
}

void FlightRecorder::record(FlightKind kind, std::string_view msg,
                            double value) noexcept {
  const std::uint64_t t = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[t % kSlots];
  s.commit.store(0, std::memory_order_release);  // mark in-progress
  s.kind = static_cast<std::uint8_t>(kind);
  s.value = value;
  const std::size_t n = msg.size() < kMsgBytes ? msg.size() : kMsgBytes;
  if (n > 0) std::memcpy(s.msg, msg.data(), n);
  s.len = static_cast<std::uint16_t>(n);
  s.commit.store(t + 1, std::memory_order_release);
}

void FlightRecorder::set_dump_path(std::string_view path) noexcept {
  if (path.size() >= kPathBytes) return;
  path_len_.store(0, std::memory_order_release);
  if (!path.empty()) std::memcpy(path_, path.data(), path.size());
  path_[path.size()] = '\0';
  path_len_.store(path.size(), std::memory_order_release);
}

bool FlightRecorder::has_dump_path() const noexcept {
  return path_len_.load(std::memory_order_acquire) > 0;
}

std::string FlightRecorder::dump_path() const {
  const std::size_t n = path_len_.load(std::memory_order_acquire);
  return std::string(path_, n);
}

bool FlightRecorder::dump() const noexcept {
  if (!has_dump_path()) return false;
  return dump_to(path_);
}

bool FlightRecorder::dump_to(const char* path) const noexcept {
  // tmp-then-rename in the same directory, like write_file_atomic, but
  // with signal-safe pieces only (no fsync: a postmortem beats none, and
  // the rename still guarantees no half-written file is ever visible).
  char tmp[kPathBytes + 8];
  const std::size_t n = std::strlen(path);
  if (n == 0 || n >= kPathBytes) return false;
  std::memcpy(tmp, path, n);
  std::memcpy(tmp + n, ".tmp", 5);

  const int fd = ::open(tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;

  const std::uint64_t total = next_.load(std::memory_order_acquire);
  const std::uint64_t first = total > kSlots ? total - kSlots : 0;

  FdWriter w(fd);
  w.lit("{\"flightrec\":\"rr-flightrec\",\"version\":1,\"pid\":");
  w.u64(static_cast<std::uint64_t>(::getpid()));
  w.lit(",\"recorded\":");
  w.u64(total);
  w.lit(",\"dropped\":");
  w.u64(first);
  w.lit(",\"events\":[");
  bool firstev = true;
  for (std::uint64_t t = first; t < total; ++t) {
    const Slot& s = slots_[t % kSlots];
    if (s.commit.load(std::memory_order_acquire) != t + 1) continue;
    char msg[kMsgBytes];
    const std::uint8_t kind = s.kind;
    const double value = s.value;
    std::size_t len = s.len;
    if (len > kMsgBytes) len = kMsgBytes;
    if (len > 0) std::memcpy(msg, s.msg, len);
    if (s.commit.load(std::memory_order_acquire) != t + 1) continue;  // torn
    if (!firstev) w.ch(',');
    firstev = false;
    w.lit("{\"seq\":");
    w.u64(t);
    w.lit(",\"kind\":");
    w.str(to_string(static_cast<FlightKind>(kind)),
          std::strlen(to_string(static_cast<FlightKind>(kind))));
    w.lit(",\"value\":");
    w.num(value);
    w.lit(",\"msg\":");
    w.str(msg, len);
    w.ch('}');
  }
  w.lit("]}");
  w.ch('\n');
  w.flush();
  const bool ok = w.ok && ::close(fd) == 0 && ::rename(tmp, path) == 0;
  if (!ok) ::unlink(tmp);
  return ok;
}

void FlightRecorder::reset() noexcept {
  next_.store(0, std::memory_order_relaxed);
  for (Slot& s : slots_) s.commit.store(0, std::memory_order_relaxed);
  path_len_.store(0, std::memory_order_release);
  path_[0] = '\0';
}

void FlightRecorder::install_sigusr1() {
  (void)global();  // construct before the handler can fire
  struct ::sigaction sa{};
  sa.sa_handler = &on_sigusr1;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGUSR1, &sa, nullptr);
}

int FlightRecorder::dump_on_exit(int exit_code) noexcept {
  // 3 == fault::ExitCode::kDegraded; util sits below the fault layer, so
  // the contract value is spelled out (fault_test pins the mapping).
  if (exit_code >= 3) (void)global().dump();
  return exit_code;
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder rec;
  return rec;
}

}  // namespace rr
