#include "swarm/stripe_tree.hpp"

#include "dist/mtree.hpp"  // constexpr placement equations only; no wdoc_dist link

namespace wdoc::swarm {

namespace {

// Virtual slot (1..n-1) of base position k (2..n) in tree `tree`.
std::uint64_t to_virtual(std::uint64_t k, std::uint64_t rot, std::uint64_t r) {
  return ((k - 2 + rot) % r) + 1;
}

// Base position (2..n) of virtual slot v (1..n-1) in tree `tree`.
std::uint64_t to_base(std::uint64_t v, std::uint64_t rot, std::uint64_t r) {
  return ((v - 1 + r - rot % r) % r) + 2;
}

}  // namespace

std::uint64_t stripe_rotation(std::uint32_t tree, std::uint32_t trees, std::uint64_t n) {
  if (n <= 2 || trees <= 1) return 0;
  const std::uint64_t r = n - 1;
  // Spread the tree heads evenly around the ring; at least one slot so
  // trees > r still yields distinct-as-possible rotations.
  std::uint64_t offset = r / trees;
  if (offset == 0) offset = 1;
  return (tree * offset) % r;
}

std::optional<std::uint64_t> stripe_parent(std::uint64_t k, std::uint32_t tree,
                                           std::uint32_t trees, std::uint64_t m,
                                           std::uint64_t n) {
  if (k <= 1 || k > n || n < 2 || m < 1) return std::nullopt;
  if (trees <= 1) return dist::parent_position(k, m);
  const std::uint64_t r = n - 1;
  const std::uint64_t rot = stripe_rotation(tree, trees, n);
  const std::uint64_t v = to_virtual(k, rot, r);
  if (v == 1) return 1;  // tree head attaches directly under the instructor
  return to_base(dist::parent_position(v, m), rot, r);
}

std::vector<std::uint64_t> stripe_children(std::uint64_t k, std::uint32_t tree,
                                           std::uint32_t trees, std::uint64_t m,
                                           std::uint64_t n) {
  std::vector<std::uint64_t> out;
  if (k < 1 || k > n || n < 2 || m < 1) return out;
  if (trees <= 1) {
    for (std::uint64_t i = 1; i <= m; ++i) {
      const std::uint64_t c = dist::child_position(k, i, m);
      if (c <= n) out.push_back(c);
    }
    return out;
  }
  const std::uint64_t r = n - 1;
  const std::uint64_t rot = stripe_rotation(tree, trees, n);
  if (k == 1) {
    out.push_back(to_base(1, rot, r));
    return out;
  }
  const std::uint64_t v = to_virtual(k, rot, r);
  for (std::uint64_t i = 1; i <= m; ++i) {
    const std::uint64_t c = dist::child_position(v, i, m);
    if (c <= r) out.push_back(to_base(c, rot, r));
  }
  return out;
}

}  // namespace wdoc::swarm
