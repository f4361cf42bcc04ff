#include "core/validity.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tsn::core {
namespace {

std::optional<GmOffsetRecord> rec(double offset, std::int64_t rx_ts) {
  GmOffsetRecord r;
  r.offset_ns = offset;
  r.local_rx_ts = rx_ts;
  return r;
}

ValidityConfig cfg(double threshold = 100.0, std::int64_t window = 1000) {
  ValidityConfig c;
  c.agreement_threshold_ns = threshold;
  c.freshness_window_ns = window;
  return c;
}

std::vector<GmVerdict> verdicts(const std::vector<std::optional<GmOffsetRecord>>& slots,
                                std::int64_t now, const ValidityConfig& c) {
  std::vector<GmVerdict> v(slots.size());
  evaluate_validity(slots, now, c, v);
  return v;
}

TEST(ValidityTest, AllFreshAndAgreeing) {
  const auto v = verdicts({rec(10, 900), rec(20, 900), rec(15, 900), rec(12, 900)},
                                   1000, cfg());
  for (const auto& verdict : v) {
    EXPECT_TRUE(verdict.fresh);
    EXPECT_TRUE(verdict.agrees);
    EXPECT_TRUE(verdict.usable());
  }
}

TEST(ValidityTest, EmptySlotNotFresh) {
  const auto v = verdicts({std::nullopt, rec(0, 900)}, 1000, cfg());
  EXPECT_FALSE(v[0].fresh);
  EXPECT_TRUE(v[1].fresh);
}

TEST(ValidityTest, StaleOffsetExcluded) {
  // Slot 0 last updated at t=0; window 1000; now 2000 -> stale.
  const auto v = verdicts({rec(10, 0), rec(10, 1900), rec(12, 1900), rec(11, 1900)},
                                   2000, cfg());
  EXPECT_FALSE(v[0].fresh);
  EXPECT_TRUE(v[1].fresh);
}

TEST(ValidityTest, OutlierVotedOut) {
  const auto v = verdicts(
      {rec(10, 900), rec(-24'000, 900), rec(15, 900), rec(12, 900)}, 1000, cfg());
  EXPECT_TRUE(v[0].usable());
  EXPECT_FALSE(v[1].agrees); // the paper's -24 us attacker
  EXPECT_TRUE(v[1].fresh);
  EXPECT_TRUE(v[2].usable());
  EXPECT_TRUE(v[3].usable());
}

TEST(ValidityTest, BoundaryExactlyAtThresholdAgrees) {
  // Offsets 0, 0, 100 with threshold 100: median is 0, the outlier sits
  // exactly at the threshold -> still agreeing (<=).
  const auto v = verdicts({rec(0, 900), rec(0, 900), rec(100, 900)}, 1000, cfg(100.0));
  EXPECT_TRUE(v[2].agrees);
}

TEST(ValidityTest, TwoFreshClocksCannotVoteEachOtherOut) {
  // With fewer than 3 fresh clocks there is no quorum to declare a GM bad.
  const auto v = verdicts({rec(0, 900), rec(1'000'000, 900)}, 1000, cfg());
  EXPECT_TRUE(v[0].agrees);
  EXPECT_TRUE(v[1].agrees);
}

TEST(ValidityTest, StalePeersDontParticipateInVote) {
  // Slot 1 agrees with slot 0 but is stale; slots 2,3 form the majority.
  const auto v = verdicts(
      {rec(0, 900), rec(0, -500), rec(500, 900), rec(510, 900)}, 1000, cfg(100.0));
  EXPECT_FALSE(v[1].fresh);
  // Fresh set is {0, 500, 510}: median 500 -> slot 0 voted out.
  EXPECT_FALSE(v[0].agrees);
  EXPECT_TRUE(v[2].agrees);
  EXPECT_TRUE(v[3].agrees);
}

TEST(ValidityTest, TwoAttackersVsTwoHonestNobodyExcluded) {
  // The identical-kernel attack scenario: 2 honest + 2 malicious (both at
  // -24 us). Median voting cannot tell the camps apart -> the FTA's
  // masking assumption (f=1) is genuinely violated, as in Fig. 3a.
  const auto v = verdicts(
      {rec(-24'000, 900), rec(5, 900), rec(-24'010, 900), rec(10, 900)}, 1000, cfg(1000.0));
  int usable = 0;
  for (const auto& verdict : v) usable += verdict.usable() ? 1 : 0;
  // Each camp's members see a median straddling both camps; with threshold
  // 1 us nobody is within it -> everyone is voted out, or symmetric cases
  // keep everyone. Either way honest GMs cannot form a clean majority.
  EXPECT_TRUE(usable == 0 || usable == 4) << "usable=" << usable;
}

} // namespace
} // namespace tsn::core
