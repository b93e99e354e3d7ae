// The benchmark's workloads. Each run builds its inputs from `seed`, sets
// up the system, measures for about `seconds`, checks the outputs and
// returns what it measured. With `trace` the run reports per-layer
// metrics instead of end-to-end ones (see main.cpp for the full lists).
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "library/virtual_library.hpp"
#include "workload/patterns.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its trace files
};

// The library gateway's reference rate: about a quarter of capacity_rps
// (70-85k req/s measured) on the 4-core reference host. Latency is
// reported at this offered rate.
inline constexpr double kReferenceRps = 20000;

[[nodiscard]] Report run_library_mix(const RunArgs& args);
// lecture_swarm_real, lecture_tree_1023 or lecture_swarm_lossy.
[[nodiscard]] Report run_lecture(const RunArgs& args);
// The wire bytes of one library_mix request; `id` travels in the
// X-Bench-Id header so the traced run can match server-side timings.
[[nodiscard]] std::string library_request(const wdoc::workload::HttpOp& op, std::uint64_t user,
                                          const std::vector<wdoc::library::LibraryEntry>& entries,
                                          const std::vector<std::string>& queries,
                                          std::uint64_t id);

// Per-layer replays of single public functions (parser, serializer,
// search, digest, blob assembly, wire codecs, swarm scheduler), with
// inputs made from `seed`. Part of every traced run.
void add_layer_replays(Report& report, std::uint64_t seed);

}  // namespace perfbench
