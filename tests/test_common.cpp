// Unit + property tests for the common substrate: ids, Result/Status,
// serialization, hashing, RNG, Zipf sampling and simulated time.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/hash.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/sim_time.hpp"

namespace wdoc {
namespace {

// --- ids ---------------------------------------------------------------------

TEST(Ids, DefaultIsInvalid) {
  ScriptId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), 0u);
}

TEST(Ids, AllocatorIsMonotonic) {
  IdAllocator<ScriptId> alloc;
  ScriptId a = alloc.next();
  ScriptId b = alloc.next();
  EXPECT_TRUE(a.valid());
  EXPECT_LT(a, b);
  EXPECT_EQ(b.value(), a.value() + 1);
}

TEST(Ids, ReserveThroughSkipsUsedRange) {
  IdAllocator<ScriptId> alloc;
  alloc.reserve_through(100);
  EXPECT_EQ(alloc.next().value(), 101u);
  alloc.reserve_through(50);  // no-op: already beyond
  EXPECT_EQ(alloc.next().value(), 102u);
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<ScriptId, StationId>);
  std::set<StationId> set{StationId{3}, StationId{1}, StationId{3}};
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ids, HashableInUnorderedContainers) {
  std::unordered_map<BlobId, int> m;
  m[BlobId{7}] = 1;
  m[BlobId{8}] = 2;
  EXPECT_EQ(m.at(BlobId{7}), 1);
}

// --- Result / Status -----------------------------------------------------------

TEST(Result, OkCarriesValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.code(), Errc::ok);
}

TEST(Result, ErrorCarriesCodeAndMessage) {
  Result<int> r = Error{Errc::not_found, "gone"};
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::not_found);
  EXPECT_EQ(r.message(), "gone");
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, ExpectThrowsWithContext) {
  Result<int> r = Error{Errc::timeout, "slow"};
  EXPECT_THROW((void)std::move(r).expect("fetching"), std::runtime_error);
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
}

TEST(Status, TryMacroPropagates) {
  auto inner = []() -> Status { return {Errc::conflict, "busy"}; };
  auto outer = [&]() -> Status {
    WDOC_TRY(inner());
    return Status::ok();
  };
  Status s = outer();
  EXPECT_EQ(s.code(), Errc::conflict);
}

TEST(Status, TryMacroPropagatesIntoResult) {
  auto inner = []() -> Status { return {Errc::io_error, "disk"}; };
  auto outer = [&]() -> Result<int> {
    WDOC_TRY(inner());
    return 1;
  };
  auto r = outer();
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::io_error);
}

TEST(Status, EveryErrcHasAName) {
  for (int c = 0; c <= static_cast<int>(Errc::out_of_space); ++c) {
    EXPECT_STRNE(errc_name(static_cast<Errc>(c)), "unknown");
  }
}

// --- serialization --------------------------------------------------------------

TEST(Serialize, RoundTripScalars) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-12345);
  w.f64(3.25);
  w.boolean(true);
  Reader r(w.data());
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0xbeef);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64().value(), -12345);
  EXPECT_DOUBLE_EQ(r.f64().value(), 3.25);
  EXPECT_TRUE(r.boolean().value());
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, RoundTripStringsAndBytes) {
  Writer w;
  w.str("hello world");
  w.str("");
  w.bytes(Bytes{1, 2, 3});
  Reader r(w.data());
  EXPECT_EQ(r.str().value(), "hello world");
  EXPECT_EQ(r.str().value(), "");
  EXPECT_EQ(r.bytes().value(), (Bytes{1, 2, 3}));
}

TEST(Serialize, UnderflowIsCorruptNotCrash) {
  Writer w;
  w.u16(7);
  Reader r(w.data());
  auto v = r.u64();
  ASSERT_FALSE(v.is_ok());
  EXPECT_EQ(v.code(), Errc::corrupt);
}

TEST(Serialize, TruncatedStringIsCorrupt) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow
  Reader r(w.data());
  EXPECT_EQ(r.str().code(), Errc::corrupt);
}

// --- hashing ---------------------------------------------------------------------

TEST(Hash, Fnv1a64KnownValue) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(fnv1a64(std::string_view("")), 1469598103934665603ULL);
  EXPECT_NE(fnv1a64(std::string_view("a")), fnv1a64(std::string_view("b")));
}

TEST(Hash, Digest128DeterministicAndContentSensitive) {
  Digest128 a = digest128("lecture-1 video");
  Digest128 b = digest128("lecture-1 video");
  Digest128 c = digest128("lecture-1 videO");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Hash, HexRoundTrip) {
  Digest128 d = digest128("round trip me");
  auto parsed = Digest128::from_hex(d.to_hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, d);
}

TEST(Hash, FromHexRejectsMalformed) {
  EXPECT_FALSE(Digest128::from_hex("").has_value());
  EXPECT_FALSE(Digest128::from_hex("xyz").has_value());
  EXPECT_FALSE(Digest128::from_hex(std::string(32, 'g')).has_value());
  EXPECT_TRUE(Digest128::from_hex(std::string(32, '0')).has_value());
}

TEST(Hash, NoTrivialCollisionsAcrossSmallCorpus) {
  std::set<Digest128> seen;
  for (int i = 0; i < 10000; ++i) {
    seen.insert(digest128("doc-" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

// Deterministic, non-repeating test input: byte i of a length-n buffer.
Bytes digest_input(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + 7) ^ (i >> 8));
  }
  return b;
}

TEST(Hash, Digest128KnownAnswers) {
  // Pins the content address: every blob file name and manifest digest is
  // one of these values, so a change here is an on-disk format change.
  const std::map<std::size_t, std::string> want = {
      {0, "b624cd8720dcfcd5ef46db3751d8e999"},
      {1, "c2fe17ce20a35c59a96c7f0ce858bbb7"},
      {7, "060378d92005e9b52744460dd675d2c0"},
      {8, "4e49895a65da0a36994b676b71ce94dd"},
      {31, "afe2b20777d8def36711d55e306b5d8f"},
      {63, "849fc61e027bd6bb7c7c971b7fa4f684"},
      {64, "1e59d36d4ab91201bcb0bceb17a04564"},
      {65, "b16f7ff3bf9b1e6832b389c45c37aa67"},
      {1000, "648e8aebd1b4b205d94481cd498772db"},
      {256u << 10, "5b5455d9338c526f31b292a9c906c686"},
  };
  for (const auto& [n, hex] : want) {
    EXPECT_EQ(digest128(std::span<const std::uint8_t>(digest_input(n))).to_hex(), hex)
        << "length " << n;
  }
  // Below 32 bytes the low word runs exactly XXH64's short-input path with
  // seed 0, so the published XXH64 values cross-check it.
  EXPECT_EQ(digest128("").lo, 0xef46db3751d8e999ULL);
  EXPECT_EQ(digest128("a").lo, 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(digest128("abc").lo, 0x44bc2cf5ad770999ULL);
}

TEST(Hash, Digest128IgnoresSourceAlignment) {
  const Bytes src = digest_input(200 + 8);
  for (std::size_t n = 0; n <= 200; ++n) {
    const Bytes aligned(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(n));
    const Digest128 want = digest128(std::span<const std::uint8_t>(aligned));
    // The same n bytes placed at every offset within one word.
    for (std::size_t off = 0; off < 8; ++off) {
      Bytes shifted(n + off);
      std::copy(aligned.begin(), aligned.end(), shifted.begin() + static_cast<std::ptrdiff_t>(off));
      EXPECT_EQ(digest128(std::span<const std::uint8_t>(shifted).subspan(off)), want)
          << "length " << n << " offset " << off;
    }
  }
}

TEST(Hash, Digest128EveryBitFlipChangesBothWords) {
  const Bytes base = digest_input(200);
  const Digest128 d0 = digest128(std::span<const std::uint8_t>(base));
  for (std::size_t bit = 0; bit < base.size() * 8; ++bit) {
    Bytes flipped = base;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const Digest128 d = digest128(std::span<const std::uint8_t>(flipped));
    EXPECT_NE(d.lo, d0.lo) << "bit " << bit;
    EXPECT_NE(d.hi, d0.hi) << "bit " << bit;
  }
}

TEST(Hash, Digest128NoCollisionsInEitherWord) {
  // 10^5 seeded inputs of mixed lengths (short strings up to multi-stripe
  // buffers): each 64-bit word on its own must stay collision-free.
  Rng rng(0x5eed);
  std::set<std::uint64_t> lo;
  std::set<std::uint64_t> hi;
  constexpr int kInputs = 100000;
  for (int i = 0; i < kInputs; ++i) {
    Bytes b(rng.uniform(160));
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_u64());
    // The index keeps inputs distinct even when the random bytes repeat.
    for (int k = 0; k < 4; ++k) b.push_back(static_cast<std::uint8_t>(i >> (8 * k)));
    const Digest128 d = digest128(std::span<const std::uint8_t>(b));
    lo.insert(d.lo);
    hi.insert(d.hi);
  }
  EXPECT_EQ(lo.size(), static_cast<std::size_t>(kInputs));
  EXPECT_EQ(hi.size(), static_cast<std::size_t>(kInputs));
}

// --- RNG -------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(10), 10u);
    std::int64_t v = rng.uniform_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, Uniform01CoversUnitInterval) {
  Rng rng(99);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Zipf, RankZeroIsMostPopular) {
  Rng rng(3);
  ZipfSampler zipf(100, 1.0);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[zipf.sample(rng)]++;
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
}

TEST(Zipf, UniformWhenExponentZero) {
  Rng rng(3);
  ZipfSampler zipf(10, 0.0);
  std::map<std::size_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[zipf.sample(rng)]++;
  for (const auto& [k, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02) << "rank " << k;
  }
}

// --- SimTime --------------------------------------------------------------------

TEST(SimTime, ConstructorsAgree) {
  EXPECT_EQ(SimTime::millis(1), SimTime::micros(1000));
  EXPECT_EQ(SimTime::seconds(1.0), SimTime::millis(1000));
  EXPECT_EQ(SimTime::minutes(2.0), SimTime::seconds(120.0));
}

TEST(SimTime, Arithmetic) {
  SimTime t = SimTime::seconds(1.5) + SimTime::millis(500);
  EXPECT_DOUBLE_EQ(t.as_seconds(), 2.0);
  EXPECT_EQ((SimTime::millis(10) * 3), SimTime::millis(30));
  EXPECT_LT(SimTime::millis(1), SimTime::millis(2));
}

TEST(SimTime, FormattingPicksUnit) {
  EXPECT_EQ(SimTime::micros(5).to_string(), "5us");
  EXPECT_NE(SimTime::millis(5).to_string().find("ms"), std::string::npos);
  EXPECT_NE(SimTime::seconds(5).to_string().find("s"), std::string::npos);
}

}  // namespace
}  // namespace wdoc
