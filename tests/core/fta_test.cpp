#include "core/fta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace tsn::core {
namespace {

// The aggregation functions reorder their input in place; these take a copy
// of a braced list.
std::optional<double> fta_of(std::vector<double> v, int f) { return fault_tolerant_average(v, f); }
std::optional<double> median_of(std::vector<double> v) { return median(v); }
std::optional<double> mean_of(std::vector<double> v) { return mean(v); }

TEST(FtaTest, FourValuesDropMinMaxAverageMiddle) {
  // The paper's configuration: N = 4, f = 1.
  const auto r = fta_of({5.0, -3.0, 100.0, 7.0}, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 6.0); // (5 + 7) / 2
}

TEST(FtaTest, FZeroIsPlainMean) {
  const auto r = fta_of({1.0, 2.0, 3.0}, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 2.0);
}

TEST(FtaTest, TooFewValuesReturnsNullopt) {
  EXPECT_FALSE(fta_of({1.0, 2.0}, 1).has_value());
  EXPECT_FALSE(fta_of({}, 0).has_value());
  EXPECT_FALSE(fta_of({1.0}, 1).has_value());
}

TEST(FtaTest, ExactlyTwoFPlusOneIsMedian) {
  const auto r = fta_of({10.0, -100.0, 3.0}, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 3.0);
}

TEST(FtaTest, NegativeFThrows) {
  EXPECT_THROW(fta_of({1.0, 2.0, 3.0}, -1), std::invalid_argument);
}

TEST(FtaTest, ByzantineValueMaskedRegardlessOfMagnitude) {
  for (double evil : {1e18, -1e18, 1e6, -42.0}) {
    const auto r = fta_of({1.0, 2.0, 3.0, evil}, 1);
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(*r, 1.0);
    EXPECT_LE(*r, 3.0);
  }
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(*median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(*median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_FALSE(median_of({}).has_value());
}

TEST(MeanTest, Basic) {
  EXPECT_DOUBLE_EQ(*mean_of({1.0, 2.0, 6.0}), 3.0);
  EXPECT_FALSE(mean_of({}).has_value());
}

TEST(AggregateTest, DispatchesMethods) {
  std::vector<double> v{1.0, 2.0, 3.0, 1000.0};
  EXPECT_DOUBLE_EQ(*aggregate(v, AggregationMethod::kFta, 1), 2.5);
  EXPECT_DOUBLE_EQ(*aggregate(v, AggregationMethod::kMedian, 1), 2.5);
  EXPECT_DOUBLE_EQ(*aggregate(v, AggregationMethod::kMean, 1), 251.5);
}

TEST(FtaBoundTest, PaperMultiplier) {
  EXPECT_DOUBLE_EQ(fta_precision_multiplier(4, 1), 2.0); // the paper's u(N,f)
  EXPECT_DOUBLE_EQ(fta_precision_multiplier(7, 2), 3.0);
  EXPECT_DOUBLE_EQ(fta_precision_multiplier(4, 0), 1.0);
  EXPECT_THROW(fta_precision_multiplier(3, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property-based checks over random inputs.

class FtaProperty : public ::testing::TestWithParam<int> {};

TEST_P(FtaProperty, ResultWithinRangeOfSurvivors) {
  const int f = GetParam();
  util::RngStream rng(99 + f, "fta-prop");
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2 * f + 1, 12));
    std::vector<double> v;
    for (int i = 0; i < n; ++i) v.push_back(rng.uniform(-1e6, 1e6));
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    const auto r = fault_tolerant_average(v, f);
    ASSERT_TRUE(r.has_value());
    // The FTA lies within the range of the surviving (trimmed) values.
    EXPECT_GE(*r, sorted[f] - 1e-9);
    EXPECT_LE(*r, sorted[n - 1 - f] + 1e-9);
  }
}

TEST_P(FtaProperty, TranslationInvariance) {
  const int f = GetParam();
  util::RngStream rng(7 + f, "fta-shift");
  for (int trial = 0; trial < 100; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2 * f + 1, 10));
    std::vector<double> v, shifted;
    const double shift = rng.uniform(-1e5, 1e5);
    for (int i = 0; i < n; ++i) {
      const double x = rng.uniform(-1e4, 1e4);
      v.push_back(x);
      shifted.push_back(x + shift);
    }
    EXPECT_NEAR(*fault_tolerant_average(shifted, f), *fault_tolerant_average(v, f) + shift, 1e-6);
  }
}

TEST_P(FtaProperty, PermutationInvariance) {
  const int f = GetParam();
  util::RngStream rng(13 + f, "fta-perm");
  for (int trial = 0; trial < 100; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2 * f + 1, 10));
    std::vector<double> v;
    for (int i = 0; i < n; ++i) v.push_back(rng.uniform(-1e6, 1e6));
    auto shuffled = v;
    std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
    EXPECT_DOUBLE_EQ(*fault_tolerant_average(v, f), *fault_tolerant_average(shuffled, f));
  }
}

TEST_P(FtaProperty, ByzantineMaskingWithEnoughClocks) {
  // With n >= 3f+1 and f adversarial values, the result stays within the
  // range of the honest values.
  const int f = GetParam();
  if (f == 0) return;
  util::RngStream rng(23 + f, "fta-byz");
  for (int trial = 0; trial < 200; ++trial) {
    const int honest_n = static_cast<int>(rng.uniform_int(2 * f + 1, 10));
    std::vector<double> honest;
    for (int i = 0; i < honest_n; ++i) honest.push_back(rng.uniform(-1000.0, 1000.0));
    std::vector<double> all = honest;
    for (int i = 0; i < f; ++i) all.push_back(rng.uniform(-1e18, 1e18));
    const auto r = fault_tolerant_average(all, f);
    ASSERT_TRUE(r.has_value());
    const double lo = *std::min_element(honest.begin(), honest.end());
    const double hi = *std::max_element(honest.begin(), honest.end());
    EXPECT_GE(*r, lo - 1e-9);
    EXPECT_LE(*r, hi + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(FaultCounts, FtaProperty, ::testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------------------
// The nth_element-based implementation must agree with the textbook
// sort-then-trim formulation.

double reference_sorted_fta(std::vector<double> values, int f) {
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  const std::size_t lo = static_cast<std::size_t>(f);
  const std::size_t hi = values.size() - static_cast<std::size_t>(f);
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

TEST(FtaTest, MatchesSortedReferenceOnRandomVectors) {
  util::RngStream rng(4242, "fta-ref");
  for (int f = 0; f <= 3; ++f) {
    for (int trial = 0; trial < 300; ++trial) {
      const int n = static_cast<int>(rng.uniform_int(2 * f + 1, 64));
      std::vector<double> v;
      for (int i = 0; i < n; ++i) {
        // Mix magnitudes and force duplicates in about a third of draws.
        if (!v.empty() && rng.uniform01() < 0.33) {
          v.push_back(v[static_cast<std::size_t>(rng.uniform_int(0, n)) % v.size()]);
        } else {
          v.push_back(rng.uniform(-1e9, 1e9));
        }
      }
      const auto got = fault_tolerant_average(v, f);
      ASSERT_TRUE(got.has_value());
      const double want = reference_sorted_fta(v, f);
      // The reference's left-to-right sum carries O(n·eps·max|x|) rounding
      // error; the compensated implementation is at least as accurate.
      EXPECT_NEAR(*got, want, static_cast<double>(n) * 1e9 * 1e-15)
          << "f=" << f << " n=" << n;
    }
  }
}

TEST(FtaTest, MatchesSortedReferenceWithInfinities) {
  // A single +inf or -inf is trimmed away exactly like the sorted version
  // would trim it.
  EXPECT_DOUBLE_EQ(*fta_of(
                       {std::numeric_limits<double>::infinity(), 1.0, 2.0, 3.0}, 1),
                   2.5);
  EXPECT_DOUBLE_EQ(*fta_of(
                       {-std::numeric_limits<double>::infinity(), 1.0, 2.0, 3.0}, 1),
                   1.5);
  EXPECT_DOUBLE_EQ(*fta_of({-std::numeric_limits<double>::infinity(), 1.0, 2.0,
                                            std::numeric_limits<double>::infinity()},
                                           1),
                   1.5);
  // An infinity that survives the trim propagates, as with a full sort.
  const auto surviving = fta_of(
      {std::numeric_limits<double>::infinity(), std::numeric_limits<double>::infinity(), 1.0,
       2.0},
      1);
  ASSERT_TRUE(surviving.has_value());
  EXPECT_TRUE(std::isinf(*surviving));
  // Duplicated infinities on both sides of the trim.
  const auto both = fta_of(
      {std::numeric_limits<double>::infinity(), std::numeric_limits<double>::infinity(),
       -std::numeric_limits<double>::infinity(), -std::numeric_limits<double>::infinity(), 5.0},
      2);
  ASSERT_TRUE(both.has_value());
  EXPECT_DOUBLE_EQ(*both, 5.0);
}

TEST(MedianTest, MatchesSortedReferenceOnRandomVectors) {
  util::RngStream rng(777, "med-ref");
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 65));
    std::vector<double> v;
    for (int i = 0; i < n; ++i) {
      v.push_back(rng.uniform01() < 0.3 ? std::floor(rng.uniform(-5.0, 5.0))
                                        : rng.uniform(-1e9, 1e9));
    }
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    const double want = (n % 2 == 1)
                            ? sorted[static_cast<std::size_t>(n) / 2]
                            : (sorted[static_cast<std::size_t>(n) / 2 - 1] +
                               sorted[static_cast<std::size_t>(n) / 2]) /
                                  2.0;
    EXPECT_DOUBLE_EQ(*median(v), want) << "n=" << n;
  }
}

} // namespace
} // namespace tsn::core
