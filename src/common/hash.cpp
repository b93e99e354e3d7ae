#include "common/hash.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

namespace wdoc {

namespace {

// xxHash64's primes and round: each 8-byte word is multiplied in, rotated,
// and multiplied again, so one lane absorbs a word in a short dependency
// chain and independent lanes keep the multiplier busy.
constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ULL;

constexpr std::size_t kLanes = 8;
constexpr std::size_t kStripe = kLanes * 8;  // bytes one pass over the lanes eats

// Little-endian load through memcpy: safe at any alignment, and the same
// digest on every host.
inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

inline std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}

inline std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  acc += word * kP2;
  acc = std::rotl(acc, 31);
  return acc * kP1;
}

inline std::uint64_t merge_lane(std::uint64_t h, std::uint64_t lane) {
  h ^= lane_round(0, lane);
  return h * kP1 + kP4;
}

inline std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace

// Two accumulators, `a` and `b`, each absorb every input byte by a
// different route, so each output word depends on the whole input.
// Inputs of at least one stripe run through eight independent lanes; both
// accumulators then merge all eight lanes (in opposite orders, with
// different rotations). The ragged tail of up to 63 bytes is folded into
// both accumulators word by word, then 4 bytes, then byte by byte. Below
// 32 bytes the low word is exactly XXH64 with seed 0.
Digest128 digest128(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  const std::size_t n = data.size();
  std::size_t i = 0;
  std::uint64_t a;
  std::uint64_t b;
  if (n >= kStripe) {
    std::array<std::uint64_t, kLanes> v;
    for (std::size_t k = 0; k < kLanes; ++k) v[k] = kP1 * (2 * k + 1) + kP2 * (k + 1);
    for (; i + kStripe <= n; i += kStripe) {
      // Unrolled so the lanes stay in registers at every optimization level.
#pragma GCC unroll 8
      for (std::size_t k = 0; k < kLanes; ++k) v[k] = lane_round(v[k], load64(p + i + 8 * k));
    }
    a = 0;
    b = kP5;
    for (std::size_t k = 0; k < kLanes; ++k) {
      a += std::rotl(v[k], static_cast<int>(1 + 7 * k));
      b += std::rotl(v[kLanes - 1 - k], static_cast<int>(5 + 11 * k) % 64);
    }
    for (std::size_t k = 0; k < kLanes; ++k) {
      a = merge_lane(a, v[k]);
      b = merge_lane(b, v[kLanes - 1 - k]);
    }
  } else {
    a = kP5;
    b = kP4 ^ kP1;
  }
  a += n;
  b += n * kP3;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t k = lane_round(0, load64(p + i));
    a = std::rotl(a ^ k, 27) * kP1 + kP4;
    b = std::rotl(b ^ k, 31) * kP2 + kP3;
  }
  if (i + 4 <= n) {
    const std::uint64_t k = std::uint64_t{load32(p + i)} * kP1;
    a = std::rotl(a ^ k, 23) * kP2 + kP3;
    b = std::rotl(b ^ k, 19) * kP1 + kP4;
    i += 4;
  }
  for (; i < n; ++i) {
    const std::uint64_t k = std::uint64_t{p[i]} * kP5;
    a = std::rotl(a ^ k, 11) * kP1;
    b = std::rotl(b ^ k, 13) * kP2;
  }
  a = avalanche(a);
  b = avalanche(b ^ std::rotl(a, 32));
  return Digest128{a, b};
}

Digest128 digest128(std::string_view s) {
  return digest128(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

std::optional<Digest128> Digest128::from_hex(std::string_view hex) {
  if (hex.size() != 32) return std::nullopt;
  auto parse = [](std::string_view part) -> std::optional<std::uint64_t> {
    std::uint64_t v = 0;
    for (char c : part) {
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint64_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint64_t>(c - 'A' + 10);
      } else {
        return std::nullopt;
      }
    }
    return v;
  };
  auto hi = parse(hex.substr(0, 16));
  auto lo = parse(hex.substr(16, 16));
  if (!hi || !lo) return std::nullopt;
  return Digest128{*lo, *hi};
}

std::string Digest128::to_hex() const {
  std::array<char, 33> buf{};
  std::snprintf(buf.data(), buf.size(), "%016llx%016llx",
                static_cast<unsigned long long>(hi), static_cast<unsigned long long>(lo));
  return std::string(buf.data(), 32);
}

}  // namespace wdoc
