#include <algorithm>
#include <fstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

// Innermost open span of the calling thread (the default parent).
thread_local std::vector<int> t_open;

int thread_number() {
  static std::mutex mu;
  static std::map<std::thread::id, int> ids;
  const std::lock_guard lock(mu);
  return ids.emplace(std::this_thread::get_id(), static_cast<int>(ids.size()))
      .first->second;
}

}  // namespace

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Tracer::begin_pass(int pass, bool traced) {
  const std::lock_guard lock(mu_);
  pass_ = pass;
  pass_first_ = spans_.size();
  on_ = traced;
}

int Tracer::open(const char* name, int parent) {
  if (!on()) return -1;
  if (parent < 0 && !t_open.empty()) parent = t_open.back();
  SpanRecord rec;
  rec.name = name;
  rec.parent = parent;
  rec.thread = thread_number();
  rec.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - origin_)
                     .count();
  int id = 0;
  {
    const std::lock_guard lock(mu_);
    id = static_cast<int>(spans_.size());
    rec.pass = pass_;
    spans_.push_back(std::move(rec));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  const std::int64_t end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - origin_)
                               .count();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  const std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

PassTrace Tracer::summarize_pass() const {
  const std::lock_guard lock(mu_);
  const std::size_t first = pass_first_;
  const std::size_t n = spans_.size() - first;
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int parent = spans_[first + i].parent;
    if (parent >= static_cast<int>(first))
      children[static_cast<std::size_t>(parent) - first].push_back(i);
  }

  PassTrace out;
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans_[first + i];
    // Union of the children's intervals, clipped to this span: children
    // on several threads may overlap one another.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t c : children[i]) {
      const SpanRecord& k = spans_[first + c];
      iv.emplace_back(std::max(k.start_ns, s.start_ns),
                      std::min(k.end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, lo = 0, hi = 0;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    covered += hi - lo;
    const double dur = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    out.self[s.name] += dur - 1e-9 * static_cast<double>(covered);
    out.total[s.name] += dur;
    out.each[s.name].push_back(dur);
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::lock_guard lock(mu_);
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"pass\":" << s.pass
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
