// util::round_i64 must equal libm's llround / llroundl on every input the
// simulator can produce: ties, their neighbours, the ends of the exact
// range, the non-finite fallback, and a million random PHC-scale values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "util/round.hpp"

namespace tsn::util {
namespace {

void expect_same(double x) {
  ASSERT_EQ(round_i64(x), static_cast<std::int64_t>(std::llround(x))) << "x = " << x;
}

void expect_same(long double x) {
  ASSERT_EQ(round_i64(x), static_cast<std::int64_t>(std::llroundl(x))) << "x = " << x;
}

/// x, -x and the nearest representable values on either side of both.
template <class F>
void expect_same_around(F x) {
  for (const F v : {x, -x}) {
    expect_same(v);
    expect_same(std::nextafter(v, std::numeric_limits<F>::infinity()));
    expect_same(std::nextafter(v, -std::numeric_limits<F>::infinity()));
  }
}

TEST(RoundTest, TiesAndTheirNeighbours) {
  std::vector<std::int64_t> ks;
  for (std::int64_t k = 0; k < 4096; ++k) ks.push_back(k);
  for (int e = 12; e < 52; ++e) {
    const std::int64_t p = std::int64_t{1} << e;
    ks.insert(ks.end(), {p - 1, p, p + 1});
  }
  for (const std::int64_t k : ks) {
    expect_same_around(static_cast<double>(k) + 0.5);
    expect_same_around(static_cast<long double>(k) + 0.5L);
  }
  // Long double holds k + 1/2 exactly up to 2^63; cover the top of the
  // exact range and both sides of the 2^62 fallback limit.
  for (int e = 52; e < 63; ++e) {
    const std::int64_t p = std::int64_t{1} << e;
    for (const std::int64_t k : {p - 1, p, p + 1}) {
      expect_same_around(static_cast<long double>(k) + 0.5L);
    }
  }
}

TEST(RoundTest, ZeroAndRangeEdges) {
  for (const double x : {0.0, -0.0, 0.5, 0x1p-1074}) expect_same_around(x);
  for (const long double x : {0.0L, -0.0L, 0.5L, 0x1p-16445L}) expect_same_around(x);
  for (const int e : {52, 53, 54, 61, 62, 63}) {
    expect_same_around(std::ldexp(1.0, e));
    expect_same_around(std::ldexp(1.0L, e));
  }
}

TEST(RoundTest, NonFiniteTakesTheFallback) {
  expect_same(std::numeric_limits<double>::infinity());
  expect_same(-std::numeric_limits<double>::infinity());
  expect_same(std::numeric_limits<double>::quiet_NaN());
  expect_same(std::numeric_limits<long double>::infinity());
  expect_same(-std::numeric_limits<long double>::infinity());
  expect_same(std::numeric_limits<long double>::quiet_NaN());
}

TEST(RoundTest, RandomValuesAcrossTheSimulatorsRange) {
  std::mt19937_64 rng(20231017);
  // PHC nanoseconds up to a day, and timestamp / residence jitter.
  std::uniform_real_distribution<double> phc(-86'400e9, 86'400e9);
  std::uniform_real_distribution<double> jitter(-1e3, 1e3);
  std::uniform_real_distribution<long double> phc_ld(-86'400e9L, 86'400e9L);
  for (int i = 0; i < 250'000; ++i) {
    expect_same(phc(rng));
    expect_same(jitter(rng));
    expect_same(phc_ld(rng));
    // Integer nanoseconds plus a fraction: the accumulator's typical shape.
    const auto whole = static_cast<long double>(static_cast<std::int64_t>(phc(rng)));
    expect_same(whole + static_cast<long double>(jitter(rng)) / 1e3L);
  }
}

} // namespace
} // namespace tsn::util
