// library_mix: the HTTP gateway over three federated library shards and a
// storage-backed document table, driven open-loop by the seeded Zipfian
// trace of workload::open_loop_http_trace.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "http/gateway.hpp"
#include "http/server.hpp"
#include "open_loop.hpp"
#include "storage/database.hpp"
#include "workload/library_corpus.hpp"
#include "workload/patterns.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace wdoc;

constexpr std::size_t kUsers = 100'000;
constexpr std::size_t kCourses = 500;
constexpr std::size_t kShards = 3;
constexpr std::size_t kQueries = 64;
constexpr std::size_t kSetupReps = 25;
// The latency limit of the capacity ladder is the gateway's own SLO.
const std::int64_t kLatencyLimitUs = http::GatewayConfig{}.latency_slo_micros;
// Reported in place of an infinite (failed) latency.
constexpr double kFailedLatencyUs = 10e6;
constexpr const char* kEndpoint[4] = {"search", "check_out", "check_in", "doc"};
// Latency percentiles are taken per window of this much schedule time.
constexpr std::int64_t kWindowUs = 400'000;
// The untraced run repeats rounds until --seconds is used, at least this
// many; the traced run climbs the capacity ladder kClimbs times.
constexpr int kMinRounds = 3;
constexpr int kClimbs = 5;
constexpr double kClimbsBudgetS = 90;
constexpr int kRungs = 64;
constexpr int kReferenceRung = 14;
// Requests of one saturation burst, all scheduled at time zero.
constexpr std::size_t kBurstRequests = 30'000;
// Completions keep pace with arrivals when the last response lands within
// 3% of the schedule's length after the last send.
constexpr double kMinPace = 0.97;

// One connection per server worker, and the generator's one thread, fit
// in the host's cores.
std::size_t connections() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 1 ? n - 1 : 1;
}

int endpoint_of(const std::string& path) {
  if (path == "/search") return 0;
  if (path == "/check-out") return 1;
  if (path == "/check-in") return 2;
  if (path == "/doc") return 3;
  return -1;
}

// Timing hooks of the traced run, written from server worker threads.
struct Probe {
  std::atomic<bool> on{false};
  std::unique_ptr<std::atomic<std::int64_t>[]> handle_ns;
  std::size_t capacity = 0;
  std::atomic<std::uint64_t> allocs[4] = {};
  std::atomic<std::uint64_t> calls[4] = {};
  std::mutex mu;
  std::vector<double> fetch_us;  // guarded by mu

  void arm(std::size_t n) {
    handle_ns = std::make_unique<std::atomic<std::int64_t>[]>(n);
    capacity = n;
    for (std::size_t i = 0; i < n; ++i) handle_ns[i].store(-1, std::memory_order_relaxed);
    on.store(true);
  }
};

// Times StorageDocumentSource::fetch inside the gateway while the probe
// is armed; otherwise a pass-through.
class TimedDocs final : public http::DocumentSource {
 public:
  TimedDocs(http::DocumentSource& inner, Probe& probe) : inner_(&inner), probe_(&probe) {}

  Result<std::string> fetch(const std::string& course_number) override {
    if (!probe_->on.load(std::memory_order_relaxed)) return inner_->fetch(course_number);
    ScopedSpan span("storage.fetch");
    const auto t0 = Clock::now();
    Result<std::string> body = inner_->fetch(course_number);
    const double us = static_cast<double>(nanos_between(t0, Clock::now())) / 1e3;
    std::lock_guard lock(probe_->mu);
    probe_->fetch_us.push_back(us);
    return body;
  }

 private:
  http::DocumentSource* inner_;
  Probe* probe_;
};

// Everything the gateway serves from, plus the running server.
struct Stack {
  Probe probe;
  workload::LibraryCorpusConfig corpus;
  std::vector<library::LibraryEntry> entries;
  std::vector<library::VirtualLibrary> shards;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<http::StorageDocumentSource> docs;
  std::unique_ptr<TimedDocs> timed;
  std::unique_ptr<http::Gateway> gateway;
  std::unique_ptr<http::HttpServer> server;
  std::vector<std::string> queries;

  http::Response handle(const http::Request& req) {
    if (!probe.on.load(std::memory_order_relaxed)) return gateway->handle(req);
    const std::string* id_header = req.header("x-bench-id");
    const std::uint64_t id = id_header ? std::strtoull(id_header->c_str(), nullptr, 10) : ~0ULL;
    const int kind = endpoint_of(req.path);
    const std::uint64_t a0 = alloc::thread_count();
    const auto t0 = Clock::now();
    http::Response rsp;
    {
      ScopedSpan span("gw.handle", id);
      rsp = gateway->handle(req);
    }
    const std::int64_t ns = nanos_between(t0, Clock::now());
    const std::uint64_t allocs = alloc::thread_count() - a0;
    if (id < probe.capacity) probe.handle_ns[id].store(ns, std::memory_order_relaxed);
    if (kind >= 0) {
      probe.allocs[kind].fetch_add(allocs, std::memory_order_relaxed);
      probe.calls[kind].fetch_add(1, std::memory_order_relaxed);
    }
    return rsp;
  }
};

std::unique_ptr<Stack> build_stack(std::uint64_t seed, std::size_t workers) {
  auto s = std::make_unique<Stack>();
  s->corpus.courses = kCourses;
  s->corpus.shards = kShards;
  s->corpus.seed = seed;
  s->entries = workload::library_corpus(s->corpus);
  s->shards.resize(kShards);
  workload::populate_shards(s->shards, s->entries, s->corpus);
  s->db = storage::Database::in_memory();
  s->docs = std::make_unique<http::StorageDocumentSource>(*s->db);
  for (const auto& e : s->entries) {
    s->docs->put(e.course_number, workload::course_document(e)).expect("put doc");
  }
  s->timed = std::make_unique<TimedDocs>(*s->docs, s->probe);
  std::vector<library::VirtualLibrary*> shard_ptrs;
  for (auto& shard : s->shards) shard_ptrs.push_back(&shard);
  s->gateway = std::make_unique<http::Gateway>(http::GatewayConfig{}, shard_ptrs, s->timed.get());
  s->queries = workload::query_pool(s->corpus, kQueries);
  http::ServerConfig server_cfg;
  server_cfg.workers = workers;
  Stack* raw = s.get();
  s->server = std::make_unique<http::HttpServer>(
      server_cfg, [raw](const http::Request& req) { return raw->handle(req); });
  s->server->start().expect("server start");
  return s;
}

// HttpServer::stop() sets its stop flag and notifies the workers without
// holding the queue mutex, so a worker between its predicate check and its
// wait misses the wakeup and stop() never returns (a recorded defect, see
// README.md). Workers are in that window only for microseconds after they
// start or finish a connection; letting them settle first keeps stop() out
// of it.
void stop_settled(http::HttpServer& server) {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.stop();
}

std::string plus_encode(const std::string& q) {
  std::string out = q;
  std::replace(out.begin(), out.end(), ' ', '+');
  return out;
}

struct Pass {
  std::vector<ScheduledRequest> reqs;
  std::vector<int> kind;
};

// One open-loop pass at `rate` for `seconds`. Each pass draws a fresh
// population of kUsers users (ids offset by the pass number), so the
// per-user loan ledger of earlier passes cannot turn a check-out into 409.
Pass make_pass(const Stack& s, std::uint64_t seed, std::uint64_t pass_no, double rate,
               double seconds, std::size_t conns) {
  workload::HttpTraceConfig cfg;
  cfg.users = kUsers;
  cfg.courses = kCourses;
  cfg.rate_qps = rate;
  cfg.ops = std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  cfg.seed = mix64(seed * 1'000'003 + pass_no);
  const auto ops = workload::open_loop_http_trace(cfg);
  Pass pass;
  pass.reqs.reserve(ops.size());
  pass.kind.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const workload::HttpOp& op = ops[i];
    const std::uint64_t user = op.user + pass_no * kUsers;
    ScheduledRequest r;
    r.at_us = op.at_micros;
    r.conn = user % conns;
    r.expect_status = op.bogus ? 404 : 200;
    r.bytes = library_request(op, user, s.entries, s.queries, i);
    pass.reqs.push_back(std::move(r));
    pass.kind.push_back(static_cast<int>(op.kind));
  }
  return pass;
}

struct PassResult {
  std::vector<RequestOutcome> out;
  std::vector<double> lat_us;  // open-loop; failed = infinity
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  // statuses no schedule explains (not 503 / no response)
  // p99 of each kWindowUs slice of the schedule; a transient stall of the
  // shared host spoils one window, not the pass.
  std::vector<double> window_p99_us;
  double wall_s = 0;         // first scheduled send to last completion
  double pace = 0;           // completion rate over offered rate
};

PassResult run_pass(const Stack& s, const Pass& pass, std::size_t conns) {
  PassResult r;
  r.out = run_open_loop(s.server->port(), conns, pass.reqs,
                        Clock::now() + std::chrono::milliseconds(20));
  std::int64_t last_done = 0;
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < pass.reqs.size(); ++i) {
    const RequestOutcome& o = r.out[i];
    r.lat_us.push_back(latency_us(pass.reqs[i], o));
    if (failed(pass.reqs[i], o)) {
      ++r.failed;
      if (o.status != 0 && o.status != 503) ++r.wrong;
    }
    last_done = std::max(last_done, o.done_us);
    const auto w = static_cast<std::size_t>(pass.reqs[i].at_us / kWindowUs);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(r.lat_us.back());
  }
  for (auto& w : windows) {
    if (w.size() >= 100) r.window_p99_us.push_back(percentile(std::move(w), 99));
  }
  if (pass.reqs.size() > 1) {
    const std::int64_t first_at = pass.reqs.front().at_us;
    const std::int64_t last_at = pass.reqs.back().at_us;
    r.wall_s = static_cast<double>(last_done - first_at) / 1e6;
    r.pace = static_cast<double>(last_at - first_at) / static_cast<double>(last_done - first_at);
  }
  return r;
}

double finite_ms(double us) { return (std::isfinite(us) ? us : kFailedLatencyUs) / 1e3; }

// Rung k of the capacity ladder: the reference rate times 1.05^(k-14), so
// rung 14 is the reference rate and rung 0 is about half of it.
double rung_rate(int k) { return kReferenceRps * std::pow(1.05, k - kReferenceRung); }

// Highest passing rung: three rungs at a time up from `start` (or down,
// if `start` fails) to bracket the knee, then the two rungs in between.
// -1 when even rung 0 fails.
template <typename Passes>
int climb(int start, Passes&& passes) {
  int lo = -1;
  for (int k = start; k < kRungs && passes(k); k += 3) lo = k;
  for (int k = start; lo < 0 && k > 0;) {
    k = std::max(0, k - 3);
    if (passes(k)) lo = k;
  }
  // Rung lo + 3 failed (or is past the top): only the two between remain.
  const int hi = std::min(lo + 3, kRungs);
  for (int k = lo + 1; lo >= 0 && k < hi && passes(k); ++k) lo = k;
  return lo;
}

// Checks search results and document bodies on a sample sent outside the
// timed window: every query the catalog can answer returns ranked,
// non-empty hits over known courses, and /doc serves the stored body.
bool check_outputs(const Stack& s, std::uint64_t seed, Report& report) {
  std::set<std::string> catalog;
  std::set<std::string> tokens;
  auto tokenize = [](const std::string& text, std::set<std::string>& into) {
    std::string cur;
    for (char c : text + " ") {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        cur += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      } else if (!cur.empty()) {
        into.insert(cur);
        cur.clear();
      }
    }
  };
  for (const auto& e : s.entries) {
    catalog.insert(e.course_number);
    tokenize(e.title, tokens);
    for (const auto& kw : e.keywords) tokenize(kw, tokens);
  }
  std::vector<ScheduledRequest> reqs;
  for (const std::string& q : s.queries) {
    reqs.push_back({0, 0, "GET /search?q=" + plus_encode(q) + "&limit=10 HTTP/1.1\r\n\r\n", 200});
  }
  std::vector<std::size_t> doc_sample;
  for (std::size_t i = 0; i < 32; ++i) {
    doc_sample.push_back(mix64(seed + i) % s.entries.size());
    reqs.push_back({0, 0,
                    "GET /doc?course=" + s.entries[doc_sample.back()].course_number +
                        " HTTP/1.1\r\n\r\n",
                    200});
  }
  OpenLoopOptions opts;
  opts.keep_bodies = true;
  const auto out = run_open_loop(s.server->port(), 1, reqs, Clock::now(), opts);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < s.queries.size(); ++i) {
    if (failed(reqs[i], out[i])) {
      ++bad;
      continue;
    }
    std::set<std::string> qtok;
    tokenize(s.queries[i], qtok);
    bool answerable = false;
    for (const auto& t : qtok) answerable = answerable || tokens.count(t) != 0;
    // Hits in order: "course":"X" ... "score":Y
    const std::string& body = out[i].body;
    std::size_t hits = 0;
    double prev = INFINITY;
    bool ok = true;
    for (std::size_t at = body.find("\"course\":\""); at != std::string::npos;
         at = body.find("\"course\":\"", at + 1)) {
      const std::size_t b = at + 10;
      const std::string course = body.substr(b, body.find('"', b) - b);
      const std::size_t sc = body.find("\"score\":", b);
      const double score = sc == std::string::npos ? NAN : std::strtod(body.c_str() + sc + 8, nullptr);
      ok = ok && catalog.count(course) != 0 && score <= prev;
      prev = score;
      ++hits;
    }
    if (!ok || (answerable && hits == 0)) ++bad;
  }
  for (std::size_t j = 0; j < doc_sample.size(); ++j) {
    const std::size_t i = s.queries.size() + j;
    if (failed(reqs[i], out[i]) ||
        out[i].body != workload::course_document(s.entries[doc_sample[j]])) {
      ++bad;
    }
  }
  report.note("output check: " + std::to_string(reqs.size()) + " sampled responses, " +
              std::to_string(bad) + " wrong");
  return bad == 0;
}

}  // namespace

std::string library_request(const workload::HttpOp& op, std::uint64_t user,
                            const std::vector<library::LibraryEntry>& entries,
                            const std::vector<std::string>& queries, std::uint64_t id) {
  const std::string& course = entries[op.course_index % entries.size()].course_number;
  std::string line;
  switch (op.kind) {
    case workload::HttpOpKind::search:
      line = "GET /search?q=" + plus_encode(queries[op.course_index % queries.size()]) +
             "&limit=10";
      break;
    case workload::HttpOpKind::check_out:
      line = "POST /check-out?course=" + course + "&student=" + std::to_string(user);
      break;
    case workload::HttpOpKind::check_in:
      line = "POST /check-in?course=" + course + "&student=" + std::to_string(user);
      break;
    case workload::HttpOpKind::fetch:
      line = "GET /doc?course=" + (op.bogus ? "XX" + std::to_string(op.course_index) : course);
      break;
  }
  return line + " HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\nX-Bench-Id: " +
         std::to_string(id) + "\r\n\r\n";
}

Report run_library_mix(const RunArgs& args) {
  Report report;
  const std::size_t conns = connections();

  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    if (stack) stop_settled(*stack->server);
    stack.reset();
    const auto t0 = Clock::now();
    stack = build_stack(args.seed, conns);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  report.note("library_mix: " + std::to_string(conns) + " connections, " +
              std::to_string(conns) + " server workers, reference rate " +
              std::to_string(static_cast<int>(kReferenceRps)) + " req/s");

  std::uint64_t pass_no = 0;
  std::uint64_t wrong = 0;
  auto pass_at = [&](double rate, double seconds) {
    const Pass pass = make_pass(*stack, args.seed, pass_no++, rate, seconds, conns);
    PassResult r = run_pass(*stack, pass, conns);
    wrong += r.wrong;
    return std::make_pair(pass, std::move(r));
  };

  // Warm-up: fills caches and finishes lazy set-up before anything is timed.
  (void)pass_at(kReferenceRps, std::max(0.2, args.seconds * 0.05));

  if (!args.trace) {
    // Rounds of a reference segment and a saturation burst until the time
    // is used, so the figures below sample the shared host at several
    // moments of the run.
    std::vector<double> round_p50_us, window_p99_us, burst_wall_s;
    std::size_t ref_requests = 0;
    const auto started = Clock::now();
    for (int round = 0; round < kMinRounds || seconds_between(started, Clock::now()) < args.seconds;
         ++round) {
      const auto [ref_pass, ref] = pass_at(kReferenceRps, std::max(1.0, args.seconds * 0.1));
      report.attempted += ref_pass.reqs.size();
      report.failed += ref.failed;
      ref_requests += ref_pass.reqs.size();
      round_p50_us.push_back(percentile(ref.lat_us, 50));
      window_p99_us.insert(window_p99_us.end(), ref.window_p99_us.begin(), ref.window_p99_us.end());
      // Read before any burst, whose request buffers the client holds.
      if (round == 0) report.add("peak_rss_mb", peak_rss_mb(), "MB");

      // A fixed request count sent as fast as the connections take it; its
      // wall time is set by the server alone.
      Pass burst = make_pass(*stack, args.seed, pass_no++, kReferenceRps,
                             static_cast<double>(kBurstRequests) / kReferenceRps, conns);
      for (ScheduledRequest& r : burst.reqs) r.at_us = 0;
      const PassResult sat = run_pass(*stack, burst, conns);
      wrong += sat.wrong;
      report.attempted += burst.reqs.size();
      report.failed += sat.failed;
      burst_wall_s.push_back(sat.wall_s);
      report.note("round " + std::to_string(round) + ": p50 " +
                  std::to_string(round_p50_us.back()) + " us, median window p99 " +
                  std::to_string(median(ref.window_p99_us)) + " us, burst of " +
                  std::to_string(kBurstRequests) + " served in " + std::to_string(sat.wall_s) +
                  " s");
    }
    // The fastest decile of the rounds' medians: a neighbour that stalls
    // the shared host for a while spoils some rounds, not the run.
    const double p50 = percentile(round_p50_us, 10);
    report.note("reference rate: " + std::to_string(ref_requests) + " requests in " +
                std::to_string(round_p50_us.size()) + " rounds, p50 " + std::to_string(p50) +
                " us, median window p99 " + std::to_string(median(window_p99_us)) + " us over " +
                std::to_string(window_p99_us.size()) +
                " windows, highest supported percentile per round p" +
                std::to_string(supported_percentile(ref_requests / round_p50_us.size())));
    report.add("setup_s", median(setup_s), "s");
    report.add("lat_p50_ms", finite_ms(p50), "ms");
    report.add("wall_s", median(burst_wall_s), "s");
  } else {
    // The capacity ladder, untraced. Each climb samples the shared host at
    // another moment; capacity_rps is the median knee.
    std::vector<double> knees;
    std::string ladder = "ladder:";
    const double rung_s = 3 * kWindowUs / 1e6;
    auto passes = [&](int k) {
      const auto [p, r] = pass_at(rung_rate(k), rung_s);
      const bool ok = r.failed == 0 &&
                      median(r.window_p99_us) <= static_cast<double>(kLatencyLimitUs) &&
                      r.pace >= kMinPace;
      ladder += " " + std::to_string(static_cast<int>(rung_rate(k))) + (ok ? "=pass" : "=fail");
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      return ok;
    };
    const auto climbs_start = Clock::now();
    for (int i = 0; i < kClimbs; ++i) {
      // Later climbs only add samples; never let them push the run past
      // its time budget.
      if (i > 0 && seconds_between(climbs_start, Clock::now()) > kClimbsBudgetS) break;
      // Climbs after the first start three rungs below the median knee so
      // far, so one disturbed climb does not set where the others look.
      const int start = knees.empty() ? kReferenceRung
                                      : std::max(0, static_cast<int>(median(knees)) - 3);
      knees.push_back(climb(start, passes));
      ladder += " |";
    }
    report.note(ladder);
    std::vector<double> capacities;
    for (double knee : knees) capacities.push_back(knee >= 0 ? rung_rate(static_cast<int>(knee)) : 0);
    report.add("capacity_rps", median(capacities), "1/s");

    const double secs = std::max(1.0, args.seconds * 0.4);
    const auto [plain_pass, plain] = pass_at(kReferenceRps, secs);
    const Pass pass = make_pass(*stack, args.seed, pass_no++, kReferenceRps, secs, conns);
    Probe& probe = stack->probe;
    probe.arm(pass.reqs.size());
    SpanLog::global().enable(true);
    alloc::enable(true);
    const PassResult traced = run_pass(*stack, pass, conns);
    alloc::enable(false);
    probe.on.store(false);
    wrong += traced.wrong;
    report.attempted = pass.reqs.size();
    report.failed = traced.failed;

    const Clock::time_point epoch = Clock::now();  // client spans, placed after the pass
    std::vector<double> handle_us[4];
    std::vector<double> outside_us, late_us;
    for (std::size_t i = 0; i < pass.reqs.size(); ++i) {
      const RequestOutcome& o = traced.out[i];
      if (o.sent_us >= 0) late_us.push_back(static_cast<double>(o.sent_us - pass.reqs[i].at_us));
      const std::int64_t ns = probe.handle_ns[i].load(std::memory_order_relaxed);
      if (failed(pass.reqs[i], o) || ns < 0) continue;
      const double h = static_cast<double>(ns) / 1e3;
      handle_us[pass.kind[i]].push_back(h);
      outside_us.push_back(traced.lat_us[i] - h - static_cast<double>(o.sent_us - pass.reqs[i].at_us));
      SpanLog::global().record("client.request", i,
                               epoch + std::chrono::microseconds(pass.reqs[i].at_us),
                               epoch + std::chrono::microseconds(o.done_us));
    }
    for (int e = 0; e < 4; ++e) {
      report.add(std::string("gw.handle_us.p50.") + kEndpoint[e], percentile(handle_us[e], 50), "us");
      report.add(std::string("gw.handle_us.p99.") + kEndpoint[e], percentile(handle_us[e], 99), "us");
      const std::uint64_t calls = probe.calls[e].load();
      report.add(std::string("gw.allocs_per_req.") + kEndpoint[e],
                 calls == 0 ? 0 : static_cast<double>(probe.allocs[e].load()) / calls, "count");
    }
    report.add("gw.outside_handle_us.p50", percentile(outside_us, 50), "us");
    report.add("gw.outside_handle_us.p99", percentile(outside_us, 99), "us");
    report.add("gen.late_us.p99", percentile(late_us, 99), "us");
    {
      std::lock_guard lock(probe.mu);
      report.add("storage.fetch_us.p50", percentile(probe.fetch_us, 50), "us");
      report.add("storage.fetch_us.p99", percentile(probe.fetch_us, 99), "us");
    }
    report.add("lat_p99_ms", finite_ms(median(plain.window_p99_us)), "ms");
    report.add("lat.samples", static_cast<double>(plain.lat_us.size()), "count");
    report.add("ops_failed_ratio",
               static_cast<double>(traced.failed) / static_cast<double>(pass.reqs.size()), "ratio");
    const double plain_p50 = percentile(plain.lat_us, 50);
    report.add("trace.overhead_ratio",
               plain_p50 > 0 ? percentile(traced.lat_us, 50) / plain_p50 : 0, "ratio");
  }

  if (!check_outputs(*stack, args.seed, report)) report.correct = false;
  if (wrong != 0) {
    report.correct = false;
    report.note("responses with a status the schedule does not explain: " + std::to_string(wrong));
  }
  stop_settled(*stack->server);
  return report;
}

}  // namespace perfbench
