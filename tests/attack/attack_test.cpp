// Adversarial-schedule library: derivation purity, replay round-trips,
// oracle verdicts, and execution-mode identity (threads / partitions) for
// attack campaigns.
#include "attack/attack.hpp"

#include <gtest/gtest.h>

#include "check/fuzz.hpp"
#include "experiments/scenario.hpp"

namespace tsn::attack {
namespace {

constexpr std::int64_t kSec = 1'000'000'000LL;

TEST(AttackDeriveTest, ScheduleIsPureFunctionOfSeedAndIndex) {
  const AttackSchedule a = derive_attacks(9, 4, /*num_ecds=*/5, /*domain_count=*/5,
                                          /*fta_f=*/1, 60 * kSec);
  const AttackSchedule b = derive_attacks(9, 4, 5, 5, 1, 60 * kSec);
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());

  // Different indices and different master seeds draw different schedules.
  bool any_diff = false;
  for (std::uint64_t i = 0; i < 8 && !any_diff; ++i) {
    any_diff = derive_attacks(9, 100 + i, 5, 5, 1, 60 * kSec) != a;
  }
  EXPECT_TRUE(any_diff);
}

TEST(AttackDeriveTest, SchedulesAreWellFormed) {
  for (std::uint64_t i = 0; i < 32; ++i) {
    const AttackSchedule s = derive_attacks(3, i, 5, 5, 2, 60 * kSec);
    ASSERT_FALSE(s.empty()) << "case " << i;
    for (const AttackSpec& a : s) {
      EXPECT_LT(a.ecd, 5u) << "case " << i;
      EXPECT_GE(a.start_ns, 5 * kSec) << "case " << i;
      EXPECT_EQ(a.start_ns % 2, 1) << "case " << i << ": off-grid start";
      if (a.expect_excluded) {
        // Only overt, persistent attacks demand eviction.
        EXPECT_EQ(a.duration_ns, 0) << "case " << i;
        EXPECT_GE(std::abs(a.magnitude), 25'000.0) << "case " << i;
      }
    }
  }
}

TEST(AttackDeriveTest, AttacksRideOnAnUnchangedBaseWorld) {
  const check::FuzzCase plain = check::derive_case(9, 2, 45 * kSec, /*with_attacks=*/false);
  const check::FuzzCase armed = check::derive_case(9, 2, 45 * kSec, /*with_attacks=*/true);
  // Same testbed, same fault profile -- the adversarial schedule comes from
  // its own RNG stream and must not perturb the base derivation.
  EXPECT_EQ(plain.scenario.seed, armed.scenario.seed);
  EXPECT_EQ(plain.scenario.num_ecds, armed.scenario.num_ecds);
  EXPECT_EQ(plain.scenario.fta_f, armed.scenario.fta_f);
  EXPECT_TRUE(plain.attacks.empty());
  EXPECT_FALSE(armed.attacks.empty());
}

TEST(AttackReplayTest, RoundTripsLosslessly) {
  check::FuzzCase c = check::derive_case(9, 2, 45 * kSec, /*with_attacks=*/true);
  c.replay.raw = true;
  c.replay.faults.push_back({10 * kSec + 1, 1, 0, 5 * kSec});
  const std::string text = check::replay_to_text(c);
  EXPECT_NE(text.find("attack0="), std::string::npos);

  const check::FuzzCase parsed = check::replay_from_text(text);
  EXPECT_EQ(check::replay_to_text(parsed), text);
  ASSERT_EQ(parsed.attacks.size(), c.attacks.size());
  for (std::size_t i = 0; i < c.attacks.size(); ++i) {
    EXPECT_EQ(parsed.attacks[i], c.attacks[i]) << "attack " << i;
  }
}

/// The paper's exploit (sec. III-B) on ECD 0's GM VM 1 s after a cold
/// start, on `kernel`, with that VM shut down first when `gm_down`.
struct ExploitOutcome {
  std::size_t attempted = 0;
  std::size_t rooted = 0;
  bool compromised = false;
  std::vector<bool> reported; ///< on_exploit's verdicts
};

ExploitOutcome exploit_gm0(const std::string& kernel, bool gm_down) {
  experiments::ScenarioConfig cfg;
  cfg.gm_kernels = {kernel, "4.19.1", "4.19.1", "4.19.1"};
  experiments::Scenario scenario(cfg);
  scenario.start();
  if (gm_down) scenario.gm_vm(0).shutdown();
  ExploitOutcome out;
  AttackDriver driver;
  driver.on_exploit = [&](const ArmedAttack& a, bool rooted) {
    EXPECT_EQ(a.victim_vm, scenario.gm_vm(0).name());
    out.reported.push_back(rooted);
  };
  driver.arm(scenario, {{.kind = AttackKind::kKernelExploit,
                         .ecd = 0,
                         .start_ns = kSec,
                         .magnitude = -24'000.0}});
  scenario.run_to(2 * kSec);
  out.attempted = driver.exploits_attempted();
  out.rooted = driver.exploits_rooted();
  out.compromised = scenario.gm_vm(0).compromised();
  return out;
}

TEST(KernelExploitTest, RootsARunningGmOnVulnerableKernel) {
  const ExploitOutcome o = exploit_gm0("4.19.1", /*gm_down=*/false);
  EXPECT_EQ(o.attempted, 1u);
  EXPECT_EQ(o.rooted, 1u);
  EXPECT_TRUE(o.compromised);
  EXPECT_EQ(o.reported, std::vector<bool>{true});
}

TEST(KernelExploitTest, FailsOnPatchedKernel) {
  const ExploitOutcome o = exploit_gm0("4.19.2", /*gm_down=*/false);
  EXPECT_EQ(o.attempted, 1u);
  EXPECT_EQ(o.rooted, 0u);
  EXPECT_FALSE(o.compromised);
  EXPECT_EQ(o.reported, std::vector<bool>{false});
}

TEST(KernelExploitTest, FailsOnDeadVm) {
  const ExploitOutcome o = exploit_gm0("4.19.1", /*gm_down=*/true);
  EXPECT_EQ(o.attempted, 1u);
  EXPECT_EQ(o.rooted, 0u);
  EXPECT_FALSE(o.compromised);
}

TEST(KernelExploitTest, ReplayLineRoundTripsAndRuns) {
  check::FuzzCase c = check::derive_case(11, 1, 30 * kSec);
  c.replay.faults.push_back({25 * kSec + 1, c.scenario.num_ecds - 1, 1, 2 * kSec});
  c.attacks.push_back({.kind = AttackKind::kKernelExploit,
                       .ecd = 1,
                       .start_ns = 5 * kSec + 1,
                       .magnitude = -24'000.0,
                       .expect_excluded = true});
  const std::string text = check::replay_to_text(c);
  EXPECT_NE(text.find("attack0=kernel_exploit,1,5000000001,0,-24000,0,1\n"), std::string::npos);
  const check::FuzzCase parsed = check::replay_from_text(text);
  ASSERT_EQ(parsed.attacks.size(), 1u);
  EXPECT_EQ(parsed.attacks[0], c.attacks[0]);

  // The rooted GM's domain is evicted and the honest nodes stay bounded.
  const check::CaseResult r = check::run_case(parsed);
  EXPECT_FALSE(r.failed()) << r.summary;
  ASSERT_EQ(r.attack_verdicts.size(), 1u);
  EXPECT_TRUE(r.attack_verdicts[0].excluded_at_ns.has_value());
}

TEST(AttackOracleTest, OvertCorrectionFieldAttackIsEvicted) {
  check::FuzzCase c = check::derive_case(11, 1, 40 * kSec);
  // Script a single benign fault so the randomized injector stays out of
  // the picture; the scenario under test is the attack alone.
  c.replay.raw = true;
  c.replay.faults.push_back({30 * kSec + 1, c.scenario.num_ecds - 1, 0, 3 * kSec});

  AttackSpec s;
  s.kind = AttackKind::kCorrectionField;
  s.ecd = 0;
  s.start_ns = 5 * kSec + 1;
  s.duration_ns = 0; // persists to end of run
  s.magnitude = 40'000.0; // 4x the 10 us validity threshold: overt
  s.expect_excluded = true;
  c.attacks.push_back(s);

  const check::CaseResult r = check::run_case(c);
  ASSERT_TRUE(r.brought_up);
  EXPECT_FALSE(r.failed()) << r.summary;
  ASSERT_EQ(r.attack_verdicts.size(), 1u);
  const auto& v = r.attack_verdicts[0];
  ASSERT_TRUE(v.excluded_at_ns.has_value()) << "FTA never dropped the poisoned domain";
  EXPECT_FALSE(v.deadline_missed);
  // Eviction latency: within the oracle deadline of the attack onset.
  EXPECT_GT(*v.excluded_at_ns, v.attack.start_abs_ns);
  EXPECT_LE(*v.excluded_at_ns, v.attack.start_abs_ns + 5 * kSec);
}

TEST(AttackOracleTest, MissedEvictionIsAViolation) {
  check::FuzzCase c = check::derive_case(11, 1, 30 * kSec);
  c.replay.raw = true;
  c.replay.faults.push_back({25 * kSec + 1, c.scenario.num_ecds - 1, 0, 2 * kSec});

  // A covert bias FTA is designed to absorb -- mislabeled as overt. The
  // oracle must notice the promised eviction never happens.
  AttackSpec s;
  s.kind = AttackKind::kCorrectionField;
  s.ecd = 0;
  s.start_ns = 5 * kSec + 1;
  s.duration_ns = 0;
  s.magnitude = 2'000.0; // well inside the 10 us validity threshold
  s.expect_excluded = true;
  c.attacks.push_back(s);

  const check::CaseResult r = check::run_case(c);
  ASSERT_TRUE(r.brought_up);
  ASSERT_EQ(r.attack_verdicts.size(), 1u);
  EXPECT_FALSE(r.attack_verdicts[0].excluded_at_ns.has_value());
  EXPECT_TRUE(r.attack_verdicts[0].deadline_missed);
  bool oracle_fired = false;
  for (const check::Violation& viol : r.violations) {
    oracle_fired |= viol.invariant == "attack-eviction";
  }
  EXPECT_TRUE(oracle_fired) << r.summary;
}

TEST(AttackCampaignTest, SummaryByteIdenticalAcrossThreadCounts) {
  check::CampaignConfig cfg;
  cfg.master_seed = 9;
  cfg.num_cases = 4;
  cfg.duration_ns = 30 * kSec;
  cfg.attacks = true;

  cfg.threads = 1;
  const check::CampaignResult serial = check::run_campaign(cfg);
  cfg.threads = 4;
  const check::CampaignResult parallel = check::run_campaign(cfg);

  EXPECT_EQ(serial.summary_text(), parallel.summary_text());
  ASSERT_EQ(serial.cases.size(), parallel.cases.size());
  for (std::size_t i = 0; i < serial.cases.size(); ++i) {
    EXPECT_EQ(serial.cases[i].summary, parallel.cases[i].summary) << "case " << i;
    ASSERT_EQ(serial.cases[i].attack_verdicts.size(), parallel.cases[i].attack_verdicts.size())
        << "case " << i;
    for (std::size_t j = 0; j < serial.cases[i].attack_verdicts.size(); ++j) {
      EXPECT_EQ(serial.cases[i].attack_verdicts[j].excluded_at_ns,
                parallel.cases[i].attack_verdicts[j].excluded_at_ns)
          << "case " << i << " attack " << j;
    }
  }
}

TEST(AttackCampaignTest, PartitionCountDoesNotChangeVerdicts) {
  // The partitioned runtime's identity guarantee is partitions >= 1: any
  // shard count executes the same event interleaving byte-identically.
  check::FuzzCase c = check::derive_case(9, 3, 30 * kSec, /*with_attacks=*/true);
  c.scenario.partitions = 1;
  const check::CaseResult one = check::run_case(c);
  c.scenario.partitions = 2;
  const check::CaseResult two = check::run_case(c);

  EXPECT_EQ(one.summary, two.summary);
  ASSERT_EQ(one.attack_verdicts.size(), two.attack_verdicts.size());
  for (std::size_t j = 0; j < one.attack_verdicts.size(); ++j) {
    EXPECT_EQ(one.attack_verdicts[j].excluded_at_ns, two.attack_verdicts[j].excluded_at_ns)
        << "attack " << j;
    EXPECT_EQ(one.attack_verdicts[j].deadline_missed, two.attack_verdicts[j].deadline_missed)
        << "attack " << j;
  }
}

} // namespace
} // namespace tsn::attack
