#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile p among n samples. The epsilon keeps
// 99.9% of 10000 at rank 9990 despite binary rounding.
std::size_t nearest_rank(double p, std::size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return rank < 1 ? 1 : std::min(static_cast<std::size_t>(rank), n);
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : "null";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::uint64_t small_thread_id() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t id = next.fetch_add(1);
  return id;
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(p, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double supported_percentile(std::size_t n) {
  for (double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (n >= 1 && n - nearest_rank(p, n) >= 10) return p;
  }
  return 0;
}

std::vector<std::uint8_t> seeded_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> b(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t w = mix64(seed * 0x100000001b3ULL + i);
    std::memcpy(b.data() + i, &w, std::min<std::size_t>(8, n - i));
  }
  return b;
}

// VmHWM, not getrusage: ru_maxrss survives execve, so it would report the
// launching process's peak whenever that is the larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib * 1024.0 / 1e6;
}

std::string Report::json() const {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}}";
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

void SpanLog::record(const char* name, std::uint64_t id, Clock::time_point start,
                     Clock::time_point end) {
  if (!enabled()) return;
  const std::uint64_t tid = small_thread_id();
  std::lock_guard lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, id, tid, nanos_between(epoch_, start), nanos_between(epoch_, end)});
}

std::string SpanLog::layer_table() const {
  std::lock_guard lock(mu_);
  struct Row {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  std::map<std::uint64_t, std::vector<const Span*>> by_thread;
  for (const Span& s : spans_) by_thread[s.tid].push_back(&s);
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](const Span* a, const Span* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns : a->end_ns > b->end_ns;
    });
    // Open ancestors of the current span, with the child time each has seen.
    std::vector<std::pair<const Span*, std::int64_t>> stack;
    auto close = [&](std::int64_t until) {
      while (!stack.empty() && stack.back().first->end_ns <= until) {
        const Span* s = stack.back().first;
        Row& r = rows[s->name];
        ++r.count;
        r.total_ns += s->end_ns - s->start_ns;
        r.self_ns += s->end_ns - s->start_ns - stack.back().second;
        stack.pop_back();
      }
    };
    for (const Span* s : spans) {
      close(s->start_ns);
      if (!stack.empty()) stack.back().second += s->end_ns - s->start_ns;
      stack.emplace_back(s, 0);
    }
    close(INT64_MAX);
  }
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-28s %10s %14s %14s\n", "span", "count", "total_ms",
                "self_ms");
  out += line;
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof line, "%-28s %10llu %14.3f %14.3f\n", name.c_str(),
                  static_cast<unsigned long long>(r.count), static_cast<double>(r.total_ns) / 1e6,
                  static_cast<double>(r.self_ns) / 1e6);
    out += line;
  }
  if (dropped_ != 0) out += "spans dropped at the cap: " + std::to_string(dropped_) + "\n";
  return out;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(mu_);
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                 i == 0 ? "" : ",", s.name, static_cast<unsigned long long>(s.tid),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id));
  }
  std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
