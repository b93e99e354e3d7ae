// E10 — adaptive_m: "the system maintains the sizes of m's, based on the
// number of workstations and the physical network bandwidth for different
// types of multimedia data ... adaptive to changing network conditions."
//
// A semester of 8 broadcasts mixes media (10 MB video lectures vs 12 KB
// MIDI note hand-outs) while the campus uplink drifts (10 -> 2 -> 20 Mb/s)
// and the propagation latency swings (15 ms LAN weeks vs 300 ms overseas
// weeks). Strategies: fixed m in {1, 2, 8} for everything vs the
// coordinator's per-media adaptive m recomputed from the measured
// conditions before each broadcast. Metric: makespan per week and the mean.
// Paper shape: big payloads want narrow trees (serialization dominates),
// tiny payloads on long-latency weeks want wide trees (depth dominates); no
// fixed m wins both, the adaptive policy tracks the per-regime winner.
#include <cstdio>

#include "dist/coordinator.hpp"
#include "sim_cluster.hpp"

using namespace wdoc;
using namespace wdoc::bench;

namespace {

constexpr std::size_t kStations = 63;

struct Week {
  double bps;
  double latency_s;
  blob::MediaType media;
  std::uint64_t bytes;
};

constexpr Week kWeeks[] = {
    {10e6, 0.015, blob::MediaType::video, 10 << 20},
    {10e6, 0.300, blob::MediaType::midi, 12 << 10},
    {2e6, 0.015, blob::MediaType::video, 10 << 20},
    {2e6, 0.300, blob::MediaType::midi, 12 << 10},
    {2e6, 0.015, blob::MediaType::video, 10 << 20},
    {20e6, 0.300, blob::MediaType::midi, 12 << 10},
    {20e6, 0.015, blob::MediaType::video, 10 << 20},
    {20e6, 0.300, blob::MediaType::midi, 12 << 10},
};

double broadcast_once(std::uint64_t m, const Week& week, std::size_t index) {
  net::StationLink link;
  link.up_bps = week.bps;
  link.down_bps = week.bps;
  link.latency = SimTime::seconds(week.latency_s / 2);  // per side
  SimCluster cluster(kStations, m, link, {}, /*seed=*/index + 1);
  auto doc = make_lecture("http://mmu.edu/w" + std::to_string(index), week.bytes,
                          cluster.id(0));
  cluster.node(0).broadcast_push(doc).expect("push");
  cluster.net().run();
  return cluster.last_delivery().as_seconds();
}

}  // namespace

int main() {
  std::printf("=== E10: adaptive per-media m under drifting conditions ===\n");
  std::printf("%zu stations; video weeks carry 10 MB, MIDI weeks 12 KB;\n"
              "bandwidth drifts 10 -> 2 -> 20 Mb/s, latency 15 ms <-> 300 ms\n\n",
              kStations);

  std::printf("%5s %6s %9s %8s", "week", "media", "bw(Mb/s)", "lat(ms)");
  for (std::uint64_t m : {1ull, 2ull, 8ull}) {
    std::printf("   fixed m=%llu", static_cast<unsigned long long>(m));
  }
  std::printf("   adaptive(m)\n");

  double fixed_total[3] = {0, 0, 0};
  double adaptive_total = 0;
  dist::Coordinator coordinator;
  for (std::size_t i = 0; i < kStations; ++i) {
    coordinator.register_station(StationId{i + 1});
  }

  for (std::size_t index = 0; index < std::size(kWeeks); ++index) {
    const Week& week = kWeeks[index];
    std::printf("%5zu %6s %9.0f %8.0f", index + 1, blob::media_type_name(week.media),
                week.bps / 1e6, week.latency_s * 1e3);
    const std::uint64_t fixed[] = {1, 2, 8};
    for (int f = 0; f < 3; ++f) {
      double t = broadcast_once(fixed[f], week, index);
      fixed_total[f] += t;
      std::printf("  %9.2fs", t);
    }
    // The administrator re-measures conditions and adapts per media type.
    coordinator.adapt(week.bps, week.latency_s);
    std::uint64_t m = coordinator.m_for(week.media);
    double t = broadcast_once(m, week, index);
    adaptive_total += t;
    std::printf("  %7.2fs(%llu)\n", t, static_cast<unsigned long long>(m));
  }

  std::printf("\n%30s", "mean makespan:");
  for (double t : fixed_total) std::printf("  %9.2fs", t / std::size(kWeeks));
  std::printf("  %9.2fs\n", adaptive_total / std::size(kWeeks));
  std::printf("\nshape check: video weeks favour small m (uplink serialization\n"
              "dominates), long-latency MIDI weeks favour large m (tree depth\n"
              "dominates); only the adaptive policy is near-best in both.\n");
  return 0;
}
