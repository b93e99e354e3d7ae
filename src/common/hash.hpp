// Content hashing for BLOB dedup and integrity checks.
//
// Digest128 is a word-at-a-time, eight-lane hash in the xxHash64 style (see
// hash.cpp) whose two 64-bit words each depend on every input byte; it is a
// content-address, not a cryptographic commitment — collision resistance at
// the 2^-64 level is ample for a course-material store. fnv1a64 stays the
// small byte-at-a-time hash for WAL checksums and hash tables.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace wdoc {

[[nodiscard]] constexpr std::uint64_t fnv1a64(std::span<const std::uint8_t> data,
                                              std::uint64_t seed = 1469598103934665603ULL) {
  std::uint64_t h = seed;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view s,
                                           std::uint64_t seed = 1469598103934665603ULL) {
  return fnv1a64(std::span<const std::uint8_t>(
                     reinterpret_cast<const std::uint8_t*>(s.data()), s.size()),
                 seed);
}

[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  // boost-style mix widened to 64 bits.
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

struct Digest128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend constexpr bool operator==(const Digest128&, const Digest128&) = default;
  friend constexpr bool operator<(const Digest128& a, const Digest128& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  [[nodiscard]] std::string to_hex() const;
  // Inverse of to_hex(); fails on malformed input.
  [[nodiscard]] static std::optional<Digest128> from_hex(std::string_view hex);
};

[[nodiscard]] Digest128 digest128(std::span<const std::uint8_t> data);
[[nodiscard]] Digest128 digest128(std::string_view s);

}  // namespace wdoc

namespace std {
template <>
struct hash<wdoc::Digest128> {
  size_t operator()(const wdoc::Digest128& d) const noexcept {
    return static_cast<size_t>(wdoc::hash_combine(d.lo, d.hi));
  }
};
}  // namespace std
