#include "swarm/gossip.hpp"

#include <algorithm>
#include <set>

#include "common/hash.hpp"
#include "swarm/stripe_tree.hpp"

namespace wdoc::swarm {

std::vector<std::uint64_t> gossip_neighbors(std::uint64_t position, std::uint64_t m,
                                            std::uint64_t n, std::uint32_t trees,
                                            std::uint32_t extra, std::uint64_t seed) {
  std::set<std::uint64_t> out;
  if (position < 1 || position > n || n < 2 || m < 1) return {};
  if (trees == 0) trees = 1;

  for (std::uint32_t t = 0; t < trees; ++t) {
    if (auto p = stripe_parent(position, t, trees, m, n)) {
      out.insert(*p);
      // Siblings: the parent's other children share our feed and finish
      // adjacent chunk ranges first — the cheapest repair sources. Only the
      // two beside us in the parent's child list count, or a wide fan-out
      // (a star) would have every child gossip with every other.
      const std::vector<std::uint64_t> sibs = stripe_children(*p, t, trees, m, n);
      if (sibs.size() <= 3) {
        out.insert(sibs.begin(), sibs.end());
      } else {
        const auto i = static_cast<std::size_t>(
            std::find(sibs.begin(), sibs.end(), position) - sibs.begin());
        out.insert(sibs[(i + 1) % sibs.size()]);
        out.insert(sibs[(i + sibs.size() - 1) % sibs.size()]);
      }
    }
    for (std::uint64_t c : stripe_children(position, t, trees, m, n)) out.insert(c);
  }

  // Seeded shortcut peers over the non-root ring. Bounded probing keeps
  // this deterministic and O(extra) even in tiny clusters where few
  // distinct candidates exist.
  std::uint32_t added = 0;
  for (std::uint32_t j = 0; added < extra && j < extra * 8 + 8 && n > 2; ++j) {
    const std::uint64_t h = hash_combine(hash_combine(seed, position), j);
    const std::uint64_t cand = 2 + h % (n - 1);
    if (cand == position || out.contains(cand)) continue;
    out.insert(cand);
    ++added;
  }

  out.erase(position);
  return {out.begin(), out.end()};
}

}  // namespace wdoc::swarm
