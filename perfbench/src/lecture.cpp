// Lecture distribution workloads: one 10 MiB lecture pre-broadcast from
// station 0 over the simulated campus fabric (dist / swarm / net / blob).
//
//   lecture_swarm_real   N=63, m=2 swarm, real bytes, clean links
//   lecture_tree_1023    N=1023, m=2 pipelined chunk tree, size-only
//   lecture_swarm_lossy  N=63, m=2 swarm, size-only, 10% loss on every
//                        link, over the fixed simulation seeds 1..12
//
// A station's delivery latency is the wall time from the push to the
// moment the simulation reached that station's delivery, so it measures
// the distribution stack's CPU cost along the simulated schedule. A
// station that never gets the lecture is infinitely late, and so is the
// makespan of its distribution.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>

#include "net/payload.hpp"
#include "obs/metrics.hpp"
#include "sim_cluster.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace wdoc;

constexpr std::uint64_t kLectureBytes = 10 << 20;
constexpr std::size_t kMinSetups = 9;
constexpr double kInf = std::numeric_limits<double>::infinity();
// Reported in place of an infinite latency or makespan.
constexpr double kFailedLatencyMs = 1e7;
constexpr double kFailedMakespanS = 1e6;
const SimTime kSlice = SimTime::millis(10);  // sim time between wall marks

struct Spec {
  std::size_t n = 63;
  std::uint64_t m = 2;
  bool swarm = false;
  bool real = false;
  double loss = 0;
  // Simulation seeds of one sweep; empty = the run's own seed.
  std::vector<std::uint64_t> sim_seeds;
};

Spec spec_of(const std::string& name) {
  Spec s;
  if (name == "lecture_swarm_real") {
    s.swarm = true;
    s.real = true;
  } else if (name == "lecture_tree_1023") {
    s.n = 1023;
  } else if (name == "lecture_swarm_lossy") {
    s.swarm = true;
    s.loss = 0.1;
    // Fixed before any result was looked at: 4 of these 12 (1, 2, 3 and
    // 6) leave one station without the lecture, the recorded baseline
    // defect (README.md).
    for (std::uint64_t i = 1; i <= 12; ++i) s.sim_seeds.push_back(i);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return s;
}

struct Sim {
  std::unique_ptr<bench::SimCluster> cluster;
  dist::DocManifest doc;
  std::shared_ptr<const Bytes> source;  // null for a size-only lecture
};

// Set-up: the cluster, plus minting and digesting the lecture.
Sim set_up(const Spec& spec, std::uint64_t seed, std::uint64_t sim_seed, bool real) {
  ScopedSpan span("setup");
  dist::StationConfig cfg;
  cfg.chunk.enabled = true;
  if (spec.swarm) {
    cfg.swarm.enabled = true;
    cfg.swarm.trees = static_cast<std::uint32_t>(spec.m);
  }
  net::StationLink link = bench::kCampusLink;
  link.loss_rate = spec.loss;
  Sim sim;
  sim.cluster = std::make_unique<bench::SimCluster>(spec.n, spec.m, link, cfg, sim_seed);
  const std::string key = "http://mmu.edu/lecture";
  if (!real) {
    sim.doc = bench::make_lecture(key, kLectureBytes, sim.cluster->id(0));
    return sim;
  }
  sim.source = std::make_shared<const Bytes>(seeded_bytes(kLectureBytes, seed));
  sim.doc.doc_key = key;
  sim.doc.structure_bytes = 64 << 10;
  sim.doc.home = sim.cluster->id(0);
  dist::BlobRef ref;
  {
    ScopedSpan digest_span("blob.digest");
    ref.digest = digest128(*sim.source);
  }
  ref.size = sim.source->size();
  ref.type = blob::MediaType::video;
  ref.playout_ms = 0;
  sim.doc.blobs.push_back(ref);
  auto id = sim.cluster->blobs(0).put(Bytes(*sim.source), blob::MediaType::video).expect("put");
  (void)sim.cluster->blobs(0).release(id);
  return sim;
}

struct Outcome {
  std::uint64_t sim_seed = 0;
  double wall_s = 0;
  std::size_t events = 0;
  std::size_t receivers = 0;
  std::size_t delivered = 0;
  std::size_t wrong_bytes = 0;
  double makespan_s = 0;            // last delivery; infinite if one is missing
  std::vector<double> delivery_ms;  // wall latency per receiving station
  std::uint64_t allocs = 0;
  std::uint64_t chunks_received = 0, dup_rx = 0, bytes_on_wire = 0;
  std::uint64_t swarm_reqs = 0, swarm_req_chunks = 0, swarm_served = 0;
  std::uint64_t rpc_retries = 0, rpc_attempt_timeouts = 0, bytes_copied = 0;
};

// Pushes the lecture and runs the simulation to quiescence, marking the
// wall clock every kSlice of simulated time.
Outcome distribute(Sim& sim) {
  auto& reg = obs::MetricsRegistry::global();
  auto& retries = reg.counter("rpc.retries");
  auto& timeouts = reg.counter("rpc.attempt_timeouts");
  const std::uint64_t retries0 = retries.value(), timeouts0 = timeouts.value();
  const std::uint64_t copied0 = net::Payload::bytes_copied_total();
  bench::SimCluster& c = *sim.cluster;
  net::SimNetwork& net = c.net();
  Outcome out;
  std::vector<std::pair<SimTime, double>> marks;  // (sim time, wall s since push)
  const std::uint64_t allocs0 = alloc::thread_count();
  const auto t0 = Clock::now();
  {
    ScopedSpan span("sim.distribute");
    c.node(0).broadcast_push(sim.doc).expect("push");
    SimTime t = net.now();
    for (;;) {
      t = t + kSlice;
      out.events += net.run_until(t);
      marks.emplace_back(t, seconds_between(t0, Clock::now()));
      if (!net.step()) break;
      ++out.events;
      t = std::max(t, net.now());
    }
  }
  out.wall_s = seconds_between(t0, Clock::now());
  out.allocs = alloc::thread_count() - allocs0;

  out.receivers = c.size() - 1;
  for (std::size_t i = 1; i < c.size(); ++i) {
    const dist::NodeStats& st = c.node(i).stats();
    out.chunks_received += st.chunks_received;
    out.dup_rx += st.chunk_duplicate_rx;
    out.swarm_reqs += st.swarm_reqs_sent;
    out.swarm_req_chunks += st.swarm_chunks_requested;
    out.swarm_served += st.swarm_chunks_served;
    if (!c.store(i).has_materialized(sim.doc.doc_key)) {
      out.makespan_s = kInf;
      out.delivery_ms.push_back(kInf);
      continue;
    }
    ++out.delivered;
    const SimTime at = c.node(i).last_delivery();
    out.makespan_s = std::max(out.makespan_s, at.as_seconds());
    auto mark = std::lower_bound(marks.begin(), marks.end(), at,
                                 [](const auto& m, SimTime v) { return m.first < v; });
    out.delivery_ms.push_back((mark == marks.end() ? out.wall_s : mark->second) * 1e3);
  }
  out.swarm_served += c.node(0).stats().swarm_chunks_served;
  out.bytes_on_wire = net.total_bytes_on_wire();
  out.rpc_retries = retries.value() - retries0;
  out.rpc_attempt_timeouts = timeouts.value() - timeouts0;
  out.bytes_copied = net::Payload::bytes_copied_total() - copied0;

  // Every delivered station holds exactly the source bytes.
  if (sim.source) {
    ScopedSpan span("check.bytes");
    const Digest128 want = sim.doc.blobs.front().digest;
    for (std::size_t i = 1; i < c.size(); ++i) {
      if (!c.store(i).has_materialized(sim.doc.doc_key)) continue;
      const auto id = c.blobs(i).find(want);
      if (!id) {
        ++out.wrong_bytes;
        continue;
      }
      auto bytes = c.blobs(i).get(*id);
      if (!bytes.is_ok() || digest128(bytes.value()) != want ||
          bytes.value().size() != sim.source->size() ||
          std::memcmp(bytes.value().data(), sim.source->data(), sim.source->size()) != 0) {
        ++out.wrong_bytes;
      }
    }
  }
  return out;
}

// Runs every sweep seed once; returns the outcomes and the set-up times.
std::vector<Outcome> sweep(const Spec& spec, std::uint64_t seed, bool real,
                           std::vector<double>& setup_s) {
  std::vector<std::uint64_t> seeds = spec.sim_seeds;
  if (seeds.empty()) seeds.push_back(seed);
  std::vector<Outcome> outs;
  for (std::uint64_t s : seeds) {
    const auto t0 = Clock::now();
    Sim sim = set_up(spec, seed, s, real);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    outs.push_back(distribute(sim));
    outs.back().sim_seed = s;
  }
  return outs;
}

struct Totals {
  std::vector<double> delivery_ms;
  double wall_sum = 0, makespan_median = 0;
  std::size_t receivers = 0, delivered = 0, wrong_bytes = 0, events = 0;
};

Totals totals(const std::vector<Outcome>& outs) {
  Totals t;
  std::vector<double> makespans;
  for (const Outcome& o : outs) {
    t.wall_sum += o.wall_s;
    t.delivery_ms.insert(t.delivery_ms.end(), o.delivery_ms.begin(), o.delivery_ms.end());
    t.receivers += o.receivers;
    t.delivered += o.delivered;
    t.wrong_bytes += o.wrong_bytes;
    t.events += o.events;
    makespans.push_back(o.makespan_s);
  }
  t.makespan_median = median(makespans);
  return t;
}

// The end-to-end figures of the untraced distributions. Each is taken per
// distribution, then per simulation seed at the fastest decile of that
// seed's repeats, then averaged over the seeds: the simulation does the
// same work on every repeat, and a host that slows down for a while only
// delays some of them.
struct EndToEnd {
  double wall_s = 0, lat_p50_ms = 0, deliveries_per_s = 0;
};

EndToEnd end_to_end(const std::vector<Outcome>& outs) {
  std::map<std::uint64_t, std::vector<const Outcome*>> by_seed;
  for (const Outcome& o : outs) by_seed[o.sim_seed].push_back(&o);
  EndToEnd e;
  for (const auto& [seed, repeats] : by_seed) {
    std::vector<double> wall, lat, rate;
    for (const Outcome* o : repeats) {
      wall.push_back(o->wall_s);
      lat.push_back(percentile(o->delivery_ms, 50));
      rate.push_back(static_cast<double>(o->delivered) / o->wall_s);
    }
    e.wall_s += percentile(wall, 10);
    e.lat_p50_ms += percentile(lat, 10);
    e.deliveries_per_s += percentile(rate, 90);
  }
  const auto seeds = static_cast<double>(by_seed.size());
  e.wall_s /= seeds;
  e.lat_p50_ms /= seeds;
  e.deliveries_per_s /= seeds;
  return e;
}

double finite_or(double v, double sentinel) { return std::isfinite(v) ? v : sentinel; }

}  // namespace

Report run_lecture(const RunArgs& args) {
  const Spec spec = spec_of(args.workload);
  Report report;
  std::vector<double> setup_s;

  // Extra set-ups so that setup_s is a median of at least kMinSetups.
  const std::size_t per_sweep = std::max<std::size_t>(1, spec.sim_seeds.size());
  for (std::size_t i = per_sweep; i < kMinSetups; ++i) {
    const auto t0 = Clock::now();
    Sim sim = set_up(spec, args.seed, spec.sim_seeds.empty() ? args.seed : spec.sim_seeds[0],
                     spec.real);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<Outcome> outs;
  const auto started = Clock::now();
  if (!args.trace) {
    // Sweeps until the time is used; another sweep starts only if, at the
    // mean pace so far, it ends within 20% past --seconds.
    for (std::size_t sweeps = 1;; ++sweeps) {
      auto more = sweep(spec, args.seed, spec.real, setup_s);
      outs.insert(outs.end(), more.begin(), more.end());
      const double elapsed = seconds_between(started, Clock::now());
      if (elapsed + elapsed / static_cast<double>(sweeps) > args.seconds * 1.2) break;
    }
  } else {
    outs = sweep(spec, args.seed, spec.real, setup_s);
  }
  const Totals all = totals(outs);
  report.attempted = all.receivers;
  report.failed = all.receivers - all.delivered;
  report.note(args.workload + ": " + std::to_string(outs.size()) + " distributions, " +
              std::to_string(all.delivered) + "/" + std::to_string(all.receivers) +
              " stations delivered, median makespan " + std::to_string(all.makespan_median) +
              " s (simulated), " + std::to_string(all.events / outs.size()) +
              " events per distribution");
  if (!spec.sim_seeds.empty()) {
    std::string per_seed = "per simulation seed (delivered/receivers@makespan_s):";
    for (std::size_t i = 0; i < spec.sim_seeds.size(); ++i) {
      const Outcome& o = outs[i];
      per_seed += " " + std::to_string(spec.sim_seeds[i]) + ":" + std::to_string(o.delivered) +
                  "/" + std::to_string(o.receivers) + "@" + std::to_string(o.makespan_s);
    }
    report.note(per_seed);
  }
  if (all.wrong_bytes != 0) {
    report.correct = false;
    report.note("WRONG BYTES at " + std::to_string(all.wrong_bytes) + " stations");
  }

  if (!args.trace) {
    const EndToEnd e = end_to_end(outs);
    report.add("setup_s", median(setup_s), "s");
    report.add("lat_p50_ms", finite_or(e.lat_p50_ms, kFailedLatencyMs), "ms");
    report.add("wall_s", e.wall_s, "s");
    report.note("delivery latency sample: " + std::to_string(all.delivery_ms.size()) +
                " stations, highest supported percentile p" +
                std::to_string(supported_percentile(all.delivery_ms.size())));
    return report;
  }

  // Traced: the sweep above ran untraced; run it again with spans and
  // allocation counting on.
  SpanLog::global().enable(true);
  alloc::enable(true);
  std::vector<double> traced_setup;
  const std::vector<Outcome> traced = sweep(spec, args.seed, spec.real, traced_setup);
  alloc::enable(false);
  const Totals tt = totals(traced);

  std::uint64_t allocs = 0, chunks = 0, dup = 0, wire = 0, reqs = 0, req_chunks = 0,
                served = 0, retries = 0, timeouts = 0, copied = 0;
  for (const Outcome& o : traced) {
    allocs += o.allocs;
    chunks += o.chunks_received;
    dup += o.dup_rx;
    wire += o.bytes_on_wire;
    reqs += o.swarm_reqs;
    req_chunks += o.swarm_req_chunks;
    served += o.swarm_served;
    retries += o.rpc_retries;
    timeouts += o.rpc_attempt_timeouts;
    copied += o.bytes_copied;
  }
  const double bound_s = 8.0 * static_cast<double>(kLectureBytes) /
                         std::min(bench::kCampusLink.up_bps, bench::kCampusLink.down_bps);
  const double makespan_s = finite_or(tt.makespan_median, kFailedMakespanS);
  report.add("makespan_s", makespan_s, "s");
  report.add("makespan.bound_ratio", makespan_s / bound_s, "ratio");
  report.add("ops_failed_ratio",
             static_cast<double>(tt.receivers - tt.delivered) / static_cast<double>(tt.receivers),
             "ratio");
  report.add("lat_p99_ms", finite_or(percentile(all.delivery_ms, 99), kFailedLatencyMs), "ms");
  report.add("capacity_rps", end_to_end(outs).deliveries_per_s, "1/s");
  report.add("lat.samples", static_cast<double>(all.delivery_ms.size()), "count");
  report.add("sim.events", static_cast<double>(tt.events) / static_cast<double>(traced.size()),
             "count");
  report.add("sim.ns_per_event", tt.wall_sum * 1e9 / static_cast<double>(tt.events), "ns");
  report.add("dist.allocs_per_chunk",
             chunks == 0 ? 0 : static_cast<double>(allocs) / static_cast<double>(chunks), "count");
  report.add("dist.dup_ratio", chunks == 0 ? 0 : static_cast<double>(dup) / chunks, "ratio");
  report.add("net.overhead_ratio",
             static_cast<double>(wire) /
                 (static_cast<double>(kLectureBytes) * static_cast<double>(tt.receivers)),
             "ratio");
  report.add("net.payload.bytes_copied", static_cast<double>(copied), "bytes");
  report.add("swarm.reqs", static_cast<double>(reqs), "count");
  report.add("swarm.req_chunks", static_cast<double>(req_chunks), "count");
  report.add("swarm.served", static_cast<double>(served), "count");
  report.add("rpc.retries", static_cast<double>(retries), "count");
  report.add("rpc.attempt_timeouts", static_cast<double>(timeouts), "count");
  report.add("trace.overhead_ratio", tt.wall_sum / all.wall_sum, "ratio");

  // The payload's own cost: the same distribution with size-only blobs.
  // Only on clean links: under loss the two diverge (see README.md).
  if (spec.real) {
    SpanLog::global().enable(false);
    std::vector<double> ignored;
    const Totals size_only = totals(sweep(spec, args.seed, /*real=*/false, ignored));
    SpanLog::global().enable(true);
    report.add("blob.payload_s", all.wall_sum - size_only.wall_sum, "s");
    if (size_only.events != all.events) {
      report.correct = false;
      report.note("real-byte and size-only runs diverged: " + std::to_string(all.events) +
                  " vs " + std::to_string(size_only.events) + " events");
    }
  }
  return report;
}

}  // namespace perfbench
