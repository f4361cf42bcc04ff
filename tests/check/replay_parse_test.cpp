// Replay files are experiment inputs: a value that does not parse whole or
// a key nothing reads must fail loudly, naming the key, instead of running
// another world than the file describes.
#include "check/fuzz.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

namespace tsn::check {
namespace {

constexpr std::int64_t kSec = 1'000'000'000LL;

/// A well-formed replay with faults and attacks, one line of which the
/// tests replace.
std::string base_text() {
  FuzzCase c = derive_case(9, 2, 45 * kSec, /*with_attacks=*/true);
  c.replay.faults.push_back({10 * kSec, 1, 0, 5 * kSec});
  return replay_to_text(c);
}

/// base_text() with the line starting "<key>=" replaced by `line`.
std::string with_line(const std::string& key, const std::string& line) {
  std::string text = base_text();
  const std::size_t at = text.find("\n" + key + "=");
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t end = text.find('\n', at + 1);
  return text.replace(at + 1, end - at - 1, line);
}

/// The message replay_from_text throws for `text`, or "" when it loads.
std::string error_of(const std::string& text) {
  try {
    replay_from_text(text);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(ReplayParseTest, WellFormedTextRoundTrips) {
  const std::string text = base_text();
  EXPECT_EQ(error_of(text), "");
  EXPECT_EQ(replay_to_text(replay_from_text(text)), text);
}

TEST(ReplayParseTest, ScalarsMustParseWhole) {
  for (const auto& [key, line] : std::initializer_list<std::pair<std::string, std::string>>{
           {"num_ecds", "num_ecds=4x"},
           {"duration_ns", "duration_ns=12s"},
           {"seed", "seed=-1"},
           {"max_drift_ppm", "max_drift_ppm=1.5.2"},
           {"wander_sigma_ppm", "wander_sigma_ppm="},
           {"gm_mutual_sync", "gm_mutual_sync=2"}}) {
    const std::string why = error_of(with_line(key, line));
    EXPECT_NE(why.find("'" + key + "'"), std::string::npos) << line << " -> " << why;
  }
}

TEST(ReplayParseTest, UnknownKeyIsRejectedByName) {
  const std::string why = error_of(with_line("max_drift_ppm", "max_drift_ppms=15.59"));
  EXPECT_NE(why.find("'max_drift_ppms'"), std::string::npos) << why;
}

TEST(ReplayParseTest, FaultAndAttackFieldsParseWhole) {
  for (const auto& [key, line, expect] :
       std::initializer_list<std::tuple<std::string, std::string, std::string>>{
           {"fault0", "fault0=10000000000,1x,0,5000000000", "'fault0.ecd'"},
           {"fault0", "fault0=10000000000,1,0", "'fault0'"},
           {"fault0", "fault0=10000000000,1,0,5000000000,7", "'fault0'"},
           {"attack0", "attack0=delay_const,1,2,3,4.5,6,1x", "'attack0.expect_excluded'"},
           {"attack0", "attack0=delay_const,1,2,3,4.5e,6,1", "'attack0.magnitude'"},
           {"attack0", "attack0=delay_const,1,2,3", "'attack0'"}}) {
    const std::string why = error_of(with_line(key, line));
    EXPECT_NE(why.find(expect), std::string::npos) << line << " -> " << why;
  }
}

TEST(ReplayParseTest, SeedsTakeTheFullWord) {
  // derive_case draws case seeds from all 64 bits.
  const FuzzCase c = replay_from_text(with_line("seed", "seed=18446744073709551615"));
  EXPECT_EQ(c.scenario.seed, std::numeric_limits<std::uint64_t>::max());
}

} // namespace
} // namespace tsn::check
