// Deterministic bounded-degree gossip neighbor selection.
//
// A station's swarm neighbors are the stations it exchanges SwarmHave
// bitmaps with and may pull chunks from: its stripe-tree relations
// (parent, children, and the siblings on either side in every stripe tree
// — the stations whose possession it most directly depends on) plus `extra` seeded
// pseudo-random peers, the HCA-style shortcut links that keep the overlay
// diameter low without unbounded degree. The set is a pure function of
// (position, m, n, trees, extra, seed), so both endpoints of every link
// can derive it independently; extra links are intentionally asymmetric —
// the receiving end adopts the peer on first SwarmHave contact.
#pragma once

#include <cstdint>
#include <vector>

namespace wdoc::swarm {

// Sorted, deduplicated neighbor positions of `position` (1-based) in an
// n-station cluster; never contains `position` itself. Empty when the
// station is outside [1, n] or the cluster is trivial.
[[nodiscard]] std::vector<std::uint64_t> gossip_neighbors(std::uint64_t position,
                                                          std::uint64_t m, std::uint64_t n,
                                                          std::uint32_t trees,
                                                          std::uint32_t extra,
                                                          std::uint64_t seed);

}  // namespace wdoc::swarm
