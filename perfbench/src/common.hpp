// Shared pieces of the benchmark: clocks, percentiles, the metric record
// printed on the last output line, the in-memory span log behind the
// traced run, and the allocation counter.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline std::int64_t micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
}
[[nodiscard]] inline std::int64_t nanos_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// Nearest-rank percentile, p in [0, 100]. Empty input gives 0.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);
// The highest of p50, p90, p99, p99.9 and p99.99 that leaves at least ten
// samples beyond it in a sample of `n`; 0 when even the median does not.
[[nodiscard]] double supported_percentile(std::size_t n);

// Peak resident set of this process, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run reports. `correct` turns false on any output that
// contradicts the input (wrong status, wrong bytes, unranked hits).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines printed first

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  [[nodiscard]] std::string json() const;
};

// Spans recorded by the benchmark around calls into each layer. Kept in
// memory and written out as Chrome trace-event JSON when the run ends.
class SpanLog {
 public:
  static SpanLog& global();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void record(const char* name, std::uint64_t id, Clock::time_point start,
              Clock::time_point end);
  // Per span name: count, total and self time (self = duration minus the
  // part covered by child spans on the same thread).
  [[nodiscard]] std::string layer_table() const;
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t tid;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  static constexpr std::size_t kMaxSpans = 1 << 20;

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// RAII span; free when the log is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t id = 0)
      : name_(name), id_(id), on_(SpanLog::global().enabled()) {
    if (on_) start_ = Clock::now();
  }
  ~ScopedSpan() {
    if (on_) SpanLog::global().record(name_, id_, start_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t id_;
  bool on_;
  Clock::time_point start_{};
};

// Heap allocations made by the calling thread, counted by the replacement
// operator new in alloc_count.cpp while counting is enabled.
namespace alloc {
void enable(bool on);
[[nodiscard]] std::uint64_t thread_count();
}  // namespace alloc

// splitmix64: the benchmark's one seeded mixing function.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// `n` pseudo-random bytes made from `seed`.
[[nodiscard]] std::vector<std::uint8_t> seeded_bytes(std::size_t n, std::uint64_t seed);

}  // namespace perfbench
