// perfbench: the repository benchmark binary (run it through run.py).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--out <dir>]
//   perfbench --list
//
// Prints a host fingerprint and human-readable notes, then as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports exactly the end-to-end metrics, --trace 1 exactly the
// per-layer ones; a per-layer metric of a layer the workload does not
// exercise reads 0.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;

const std::vector<std::string> kWorkloads = {"library_mix", "lecture_swarm_real",
                                             "lecture_tree_1023", "lecture_swarm_lossy"};

const std::vector<Metric> kEndToEnd = {
    {"setup_s", 0, "s"},
    {"lat_p50_ms", 0, "ms"},
    {"wall_s", 0, "s"},
    {"peak_rss_mb", 0, "MB"},
};

const std::vector<Metric> kPerLayer = {
    // http / library / storage (library_mix)
    {"gw.handle_us.p50.search", 0, "us"},
    {"gw.handle_us.p99.search", 0, "us"},
    {"gw.handle_us.p50.check_out", 0, "us"},
    {"gw.handle_us.p99.check_out", 0, "us"},
    {"gw.handle_us.p50.check_in", 0, "us"},
    {"gw.handle_us.p99.check_in", 0, "us"},
    {"gw.handle_us.p50.doc", 0, "us"},
    {"gw.handle_us.p99.doc", 0, "us"},
    {"gw.outside_handle_us.p50", 0, "us"},
    {"gw.outside_handle_us.p99", 0, "us"},
    {"gw.allocs_per_req.search", 0, "count"},
    {"gw.allocs_per_req.check_out", 0, "count"},
    {"gw.allocs_per_req.check_in", 0, "count"},
    {"gw.allocs_per_req.doc", 0, "count"},
    {"storage.fetch_us.p50", 0, "us"},
    {"storage.fetch_us.p99", 0, "us"},
    {"gen.late_us.p99", 0, "us"},
    // layer replays (every traced run)
    {"http.parse_ns_per_req", 0, "ns"},
    {"http.serialize_ns_per_rsp", 0, "ns"},
    {"search.query_us.p50", 0, "us"},
    {"search.query_us.max", 0, "us"},
    {"blob.digest_mb_per_s", 0, "MB/s"},
    {"blob.add_chunk_us", 0, "us"},
    {"wire.chunk_encode_ns", 0, "ns"},
    {"wire.chunk_decode_ns", 0, "ns"},
    {"wire.swarm_have_decode_ns", 0, "ns"},
    {"swarm.plan_us", 0, "us"},
    // blob / net / dist / swarm (lecture workloads)
    {"blob.payload_s", 0, "s"},
    {"sim.events", 0, "count"},
    {"sim.ns_per_event", 0, "ns"},
    {"dist.allocs_per_chunk", 0, "count"},
    {"net.payload.bytes_copied", 0, "bytes"},
    {"swarm.reqs", 0, "count"},
    {"swarm.req_chunks", 0, "count"},
    {"swarm.served", 0, "count"},
    {"rpc.retries", 0, "count"},
    {"rpc.attempt_timeouts", 0, "count"},
    {"makespan_s", 0, "s"},
    {"makespan.bound_ratio", 0, "ratio"},
    {"net.overhead_ratio", 0, "ratio"},
    {"dist.dup_ratio", 0, "ratio"},
    // every workload; lat_p99_ms and capacity_rps come from the traced
    // run's untraced part
    {"lat_p99_ms", 0, "ms"},
    {"capacity_rps", 0, "1/s"},
    {"ops_failed_ratio", 0, "ratio"},
    {"lat.samples", 0, "count"},
    {"trace.overhead_ratio", 0, "ratio"},
};

const char* arg(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

std::string names_json(const std::vector<Metric>& table) {
  std::string out = "{";
  for (const Metric& m : table) {
    out += (out.size() > 1 ? ", \"" : "\"") + m.name + "\": \"" + m.unit + "\"";
  }
  return out + "}";
}

std::string load_average() {
  std::ifstream f("/proc/loadavg");
  std::string one, five, fifteen;
  f >> one >> five >> fifteen;
  return one.empty() ? "unknown" : one + " " + five + " " + fifteen;
}

// Puts the report's metrics in table order with the table's units. A
// workload that reports a name outside the table, or misses an end-to-end
// metric, is a benchmark bug.
bool conform(perfbench::Report& report, const std::vector<Metric>& table, bool zero_fill) {
  std::vector<Metric> ordered;
  for (const Metric& want : table) {
    const Metric* got = nullptr;
    for (const Metric& m : report.metrics) {
      if (m.name == want.name) got = &m;
    }
    if (got == nullptr && !zero_fill) {
      std::fprintf(stderr, "perfbench: metric %s not measured\n", want.name.c_str());
      return false;
    }
    ordered.push_back({want.name, got ? got->value : 0, want.unit});
  }
  for (const Metric& m : report.metrics) {
    bool known = false;
    for (const Metric& want : table) known = known || want.name == m.name;
    if (!known) {
      std::fprintf(stderr, "perfbench: metric %s is not in the table\n", m.name.c_str());
      return false;
    }
  }
  report.metrics = std::move(ordered);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--list")) {
    std::string w = "[";
    for (const auto& name : kWorkloads) w += (w.size() > 1 ? ", \"" : "\"") + name + "\"";
    std::printf("{\"workloads\": %s], \"end_to_end\": %s, \"per_layer\": %s}\n", w.c_str(),
                names_json(kEndToEnd).c_str(), names_json(kPerLayer).c_str());
    return 0;
  }
  perfbench::RunArgs args;
  args.workload = arg(argc, argv, "--workload", "");
  args.seed = std::strtoull(arg(argc, argv, "--seed", "1"), nullptr, 10);
  args.seconds = std::strtod(arg(argc, argv, "--seconds", "10"), nullptr);
  args.trace = std::strcmp(arg(argc, argv, "--trace", "0"), "1") == 0;
  args.out_dir = arg(argc, argv, "--out", ".bench_out");
  bool known = false;
  for (const auto& name : kWorkloads) known = known || name == args.workload;
  if (!known || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }

  std::printf("host: nproc=%u compiler=\"%s\" build=%s commit=%s loadavg=\"%s\"\n",
              std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
              arg(argc, argv, "--commit", "unknown"), load_average().c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);

  perfbench::Report report;
  try {
    report = args.workload == "library_mix" ? perfbench::run_library_mix(args)
                                            : perfbench::run_lecture(args);
    if (args.trace) {
      const auto t0 = perfbench::Clock::now();
      perfbench::add_layer_replays(report, args.seed);
      report.note("layer replays: " +
                  std::to_string(perfbench::seconds_between(t0, perfbench::Clock::now())) + " s");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (args.trace) {
    perfbench::SpanLog::global().enable(false);
    const std::string table = perfbench::SpanLog::global().layer_table();
    std::printf("%s", table.c_str());
    ::mkdir(args.out_dir.c_str(), 0755);
    const std::string stem =
        args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
    std::ofstream(stem + ".layers.txt") << table;
    if (!perfbench::SpanLog::global().write_chrome(stem + ".trace.json")) {
      std::fprintf(stderr, "perfbench: could not write %s.trace.json\n", stem.c_str());
    } else {
      report.note("chrome trace: " + stem + ".trace.json");
    }
  } else {
    bool has_rss = false;
    for (const auto& m : report.metrics) has_rss = has_rss || m.name == "peak_rss_mb";
    if (!has_rss) report.add("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  }
  if (!conform(report, args.trace ? kPerLayer : kEndToEnd, /*zero_fill=*/args.trace)) return 1;

  for (const auto& line : report.notes) std::printf("%s\n", line.c_str());
  for (const auto& m : report.metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
