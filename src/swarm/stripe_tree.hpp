// Interleaved stripe trees: `trees` rotated copies of the paper's full
// m-ary placement, with chunks striped round-robin across them. A single
// tree (trees = 1) is the paper's placement itself: the root has m
// children, exactly as parent_position / child_position place them.
//
// The single broadcast tree wastes (N - interior)/N of the cluster's
// uplink capacity: leaves never forward anything. Stripe tree t keeps the
// instructor (position 1) at the root but rotates the remaining N-1
// stations by t * (N-1)/trees virtual slots before applying the placement
// equations, so a station that is a leaf in one tree is interior in
// another and every uplink relays roughly blob_bytes/trees. The root
// attaches exactly ONE head per tree (virtual slot 1), keeping its total
// uplink at blob_bytes regardless of `trees` — that is what lets the
// swarm makespan approach the VoD paper's bandwidth lower bound
// max(B/C_root, (N-1)B/ΣC) instead of depth * B.
//
// All functions are pure position arithmetic (1-based, like mtree.hpp) and
// therefore identical at every station — no coordination messages are
// needed to agree on the forest.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace wdoc::swarm {

// Which stripe tree chunk g (global index) rides.
[[nodiscard]] constexpr std::uint32_t stripe_of(std::uint32_t g, std::uint32_t trees) {
  return trees <= 1 ? 0 : g % trees;
}

// Rotation (in virtual slots over the N-1 non-root stations) of tree t.
[[nodiscard]] std::uint64_t stripe_rotation(std::uint32_t tree, std::uint32_t trees,
                                            std::uint64_t n);

// Parent of position k in stripe tree `tree`; nullopt for the root (k = 1)
// or positions outside [1, n].
[[nodiscard]] std::optional<std::uint64_t> stripe_parent(std::uint64_t k, std::uint32_t tree,
                                                         std::uint32_t trees, std::uint64_t m,
                                                         std::uint64_t n);

// Children of position k in stripe tree `tree` (fan-out m; with trees > 1
// the root has exactly one child — the tree's head — in every tree).
[[nodiscard]] std::vector<std::uint64_t> stripe_children(std::uint64_t k, std::uint32_t tree,
                                                         std::uint32_t trees, std::uint64_t m,
                                                         std::uint64_t n);

}  // namespace wdoc::swarm
