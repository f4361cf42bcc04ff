#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace tsn::util {
namespace {

// The reference for every bitwise check below: the standard engine seeded
// exactly as RngStream seeds its own, with the libstdc++ distributions.
std::mt19937_64 reference_engine(std::uint64_t seed, std::string_view name) {
  std::seed_seq seq{seed, fnv1a64(name), std::uint64_t{0x9e3779b97f4a7c15ULL}};
  return std::mt19937_64(seq);
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

constexpr int kDraws = 1 << 20;

TEST(RngTest, DeterministicForSameSeedAndName) {
  RngStream a(42, "foo");
  RngStream b(42, "foo");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform01(), b.uniform01());
}

TEST(RngTest, DifferentStreamsDiffer) {
  RngStream a(42, "foo");
  RngStream b(42, "bar");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, DifferentSeedsDiffer) {
  RngStream a(1, "foo");
  RngStream b(2, "foo");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRange) {
  RngStream r(7, "u");
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  RngStream r(7, "ui");
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = r.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  RngStream r(7, "n");
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ChanceEdges) {
  RngStream r(7, "c");
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(RngTest, Fnv1aKnownValues) {
  // FNV-1a reference: hash of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

TEST(BoundedRandomWalkTest, StaysWithinBounds) {
  NormalStream r(9, "walk");
  BoundedRandomWalk w(0.0, 0.5, 5.0);
  for (int i = 0; i < 10000; ++i) {
    const double v = w.step(r);
    EXPECT_LE(v, 5.0);
    EXPECT_GE(v, -5.0);
  }
}

TEST(BoundedRandomWalkTest, ActuallyMoves) {
  NormalStream r(9, "walk2");
  BoundedRandomWalk w(0.0, 0.1, 5.0);
  double min = 0, max = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = w.step(r);
    min = std::min(min, v);
    max = std::max(max, v);
  }
  EXPECT_LT(min, -0.5);
  EXPECT_GT(max, 0.5);
}

TEST(RngKernelTest, EngineMatchesStdMt19937_64) {
  // 2000 words cross six refills of the 312-word state.
  for (const auto& [seed, name] : std::vector<std::pair<std::uint64_t, std::string>>{
           {0, "default"}, {1, "osc/ecd0/vm0/nic/phc"}, {42, "link/sw0-sw1"},
           {0xffffffffffffffffULL, ""}, {7, "phc-ts/ecd3/vm1/nic"}}) {
    RngStream s(seed, name);
    std::mt19937_64 ref = reference_engine(seed, name);
    for (int i = 0; i < 2000; ++i) ASSERT_EQ(s.engine()(), ref()) << name << " word " << i;
  }
}

TEST(RngKernelTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Mt19937_64>);
  RngStream s(3, "shuffle");
  std::mt19937_64 ref = reference_engine(3, "shuffle");
  std::vector<int> a(100);
  for (int i = 0; i < 100; ++i) a[i] = i;
  std::vector<int> b = a;
  std::shuffle(a.begin(), a.end(), s.engine());
  std::shuffle(b.begin(), b.end(), ref);
  EXPECT_EQ(a, b);
}

TEST(RngKernelTest, NormalMatchesStdBitwise) {
  RngStream s(11, "normal");
  std::mt19937_64 ref = reference_engine(11, "normal");
  const double sigmas[] = {8.0, 1e-3, 0.5, 2500.0};
  const double means[] = {0.0, -3.25, 1e9, 0.0};
  for (int i = 0; i < kDraws; ++i) {
    const double mean = means[i & 3];
    const double sigma = sigmas[i & 3];
    const double want = std::normal_distribution<double>(mean, sigma)(ref);
    ASSERT_EQ(bits(s.normal(mean, sigma)), bits(want)) << "draw " << i;
  }
}

TEST(RngKernelTest, UniformsMatchStdBitwise) {
  RngStream s(12, "uniform");
  std::mt19937_64 ref = reference_engine(12, "uniform");
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(bits(s.uniform01()), bits(std::uniform_real_distribution<double>(0.0, 1.0)(ref)))
        << "uniform01 draw " << i;
    const double lo = (i & 1) ? -1e6 : 0.25;
    const double hi = (i & 2) ? 1e6 : 0.5;
    ASSERT_EQ(bits(s.uniform(lo, hi)), bits(std::uniform_real_distribution<double>(lo, hi)(ref)))
        << "uniform draw " << i;
  }
}

TEST(RngKernelTest, UniformIntMatchesStd) {
  // Small, odd, power-of-two, rejection-heavy (just past 2^63) and
  // full-width ranges cover every branch of the reduction.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 3}, {-1000, 1000}, {5, 5}, {0, (std::int64_t{1} << 40) - 1}, {kMin, 0}, {kMin, kMax},
      {-7, 1'000'000'006}, {0, kMax}};
  RngStream s(13, "uniform_int");
  std::mt19937_64 ref = reference_engine(13, "uniform_int");
  for (int i = 0; i < kDraws; ++i) {
    const auto [lo, hi] = ranges[i % std::size(ranges)];
    ASSERT_EQ(s.uniform_int(lo, hi), std::uniform_int_distribution<std::int64_t>(lo, hi)(ref))
        << "draw " << i << " range [" << lo << ", " << hi << "]";
  }
}

TEST(RngKernelTest, ExponentialMatchesStdBitwise) {
  RngStream s(14, "exponential");
  std::mt19937_64 ref = reference_engine(14, "exponential");
  for (int i = 0; i < kDraws; ++i) {
    const double mean = (i & 1) ? 2.5 : 3.6e12;
    const double want = std::exponential_distribution<double>(1.0 / mean)(ref);
    ASSERT_EQ(bits(s.exponential(mean)), bits(want)) << "draw " << i;
  }
}

TEST(RngKernelTest, RandomWalkMatchesStdBitwise) {
  NormalStream s(15, "walk");
  std::mt19937_64 ref = reference_engine(15, "walk");
  BoundedRandomWalk walk(0.1, 0.05, 1.0);
  double want = 0.1;
  for (int i = 0; i < kDraws; ++i) {
    want += std::normal_distribution<double>(0.0, 0.05)(ref);
    if (want > 1.0) want = 2 * 1.0 - want;
    if (want < -1.0) want = -2 * 1.0 - want;
    want = std::clamp(want, -1.0, 1.0);
    ASSERT_EQ(bits(walk.step(s)), bits(want)) << "step " << i;
  }
}

TEST(RngKernelTest, U64ToDoubleRoundsLikeStaticCast) {
  const std::uint64_t edges[] = {0,
                                 1,
                                 (std::uint64_t{1} << 53) - 1,
                                 std::uint64_t{1} << 53,
                                 (std::uint64_t{1} << 53) + 1, // tie: rounds to even
                                 (std::uint64_t{1} << 54) + 2, // tie: rounds to even
                                 (std::uint64_t{1} << 54) + 6, // tie: rounds up to even
                                 0xffffffffULL,
                                 0x100000000ULL,
                                 (std::uint64_t{1} << 63) - 1,
                                 std::uint64_t{1} << 63,
                                 (std::uint64_t{1} << 63) + 1,
                                 0xfffffffffffffbffULL, // just below the round-up to 2^64
                                 0xfffffffffffffc00ULL, // tie: rounds to 2^64
                                 ~std::uint64_t{0}};
  for (const std::uint64_t u : edges) {
    EXPECT_EQ(bits(u64_to_double(u)), bits(static_cast<double>(u))) << std::hex << u;
  }
  std::mt19937_64 words(99);
  for (int i = 0; i < kDraws; ++i) {
    // Shift by 0..63 so short and long words both get exercised.
    const std::uint64_t u = words() >> (i & 63);
    ASSERT_EQ(bits(u64_to_double(u)), bits(static_cast<double>(u))) << std::hex << u;
  }
}

TEST(RngKernelTest, FillMatchesWordByWord) {
  // Every start index of the 312-word state, and runs that end inside the
  // state, exactly at its end, or one or two refills later.
  const std::size_t lengths[] = {0, 1, 2, 63, 64, 311, 312, 313, 624, 700};
  std::vector<std::uint64_t> got(700);
  for (std::size_t start = 0; start <= Mt19937_64::kStateWords; ++start) {
    RngStream base(16, "fill");
    for (std::size_t i = 0; i < start; ++i) base.engine()();
    for (const std::size_t n : lengths) {
      Mt19937_64 block = base.engine();
      Mt19937_64 single = base.engine();
      block.fill(got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], single()) << "start " << start << " n " << n << " word " << i;
      }
      EXPECT_EQ(block(), single()) << "start " << start << " n " << n << " next word";
    }
  }
}

TEST(NormalStreamTest, MatchesStdNormalBitwise) {
  // Mean and sigma change on every draw, so a block that scaled its
  // variates ahead of time would fail; 2^20 draws cross 32k blocks and
  // ~8.5k engine refills per stream.
  for (const auto& [seed, name] : std::vector<std::pair<std::uint64_t, std::string>>{
           {11, "normal"}, {1, "phc-ts/ecd0/vm0/nic"}, {0xffffffffffffffffULL, "link/sw0-sw1/ab"}}) {
    NormalStream s(seed, name);
    std::mt19937_64 ref = reference_engine(seed, name);
    for (int i = 0; i < kDraws; ++i) {
      const double mean = (i % 3 == 0) ? 0.0 : (i % 3 == 1 ? -3.25 * i : 1e9 + i);
      const double sigma = (i & 1) ? 8.0 : 1e-3 * (1 + (i & 255));
      const double want = std::normal_distribution<double>(mean, sigma)(ref);
      ASSERT_EQ(bits(s.normal(mean, sigma)), bits(want)) << name << " draw " << i;
    }
  }
}

TEST(NormalStreamTest, ContinuesAnRngStream) {
  // The oscillator draws its initial drift as a uniform and then hands its
  // engine over; k uniforms leave the engine before, at and after the end
  // of the first 312-word state.
  for (const int k : {0, 1, 311, 312, 313}) {
    RngStream rng(7, "osc/ecd1/vm0/nic/phc");
    for (int i = 0; i < k; ++i) rng.uniform01();
    NormalStream blocks(rng);
    RngStream scalar = rng;
    for (int i = 0; i < 10'000; ++i) {
      ASSERT_EQ(bits(blocks.normal(0.0, 0.002)), bits(scalar.normal(0.0, 0.002)))
          << "k " << k << " draw " << i;
    }
  }
}

TEST(RngKernelTest, GoldenValues) {
  // Pinned outputs: a toolchain or library change that moves a draw must
  // fail here, not silently re-baseline every simulated statistic.
  RngStream s(1, "golden");
  EXPECT_EQ(s.engine()(), 0xccf5e0b944c984d1ULL);
  for (int i = 0; i < 1000; ++i) s.engine()();
  EXPECT_EQ(s.engine()(), 0xbc0bd67b0f16bb8dULL);
  EXPECT_EQ(bits(s.uniform01()), bits(0x1.d8a41275dc94p-2));
  EXPECT_EQ(bits(s.normal(0.0, 8.0)), bits(-0x1.754c97fc950e9p+2));
  EXPECT_EQ(bits(s.exponential(2.5)), bits(0x1.75c8c0e6b74c3p+1));
  EXPECT_EQ(s.uniform_int(-1000, 1000), 613);
  NormalStream n(1, "golden");
  EXPECT_EQ(bits(n.normal(0.0, 8.0)), bits(-0x1.096653799a9e8p+1));
}

} // namespace
} // namespace tsn::util
