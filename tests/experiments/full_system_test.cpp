// Full-testbed integration tests: the 4-ECD mesh of Fig. 2 with all eight
// clock synchronization VMs, bridges, measurement VLAN and probe.
#include <gtest/gtest.h>

#include "attack/attack.hpp"
#include "experiments/harness.hpp"
#include "experiments/report.hpp"
#include "faults/injector.hpp"

namespace tsn::experiments {
namespace {

using namespace tsn::sim::literals;

TEST(FullSystemTest, BringUpConvergesToFta) {
  Scenario scenario(ScenarioConfig{});
  ExperimentHarness harness(scenario);
  harness.bring_up();
  EXPECT_TRUE(scenario.all_in_fta_phase());
  EXPECT_LT(scenario.sim().now().ns(), 60_s);
  // After FTA settles, GM clocks agree to well under the bound.
  scenario.sim().run_until(scenario.sim().now() + 30_s);
  EXPECT_LT(scenario.gm_clock_disagreement_ns(), 2'000.0);
}

TEST(FullSystemTest, CalibrationInPaperBallpark) {
  Scenario scenario(ScenarioConfig{});
  ExperimentHarness harness(scenario);
  harness.bring_up();
  const auto cal = harness.calibrate();
  // Paper exp. 1: dmin 4120 ns, dmax 9188 ns, Pi 12.64 us, gamma 1313 ns.
  EXPECT_GT(cal.dmin_ns, 2'500.0);
  EXPECT_LT(cal.dmin_ns, 6'000.0);
  EXPECT_GT(cal.dmax_ns, cal.dmin_ns);
  EXPECT_LT(cal.dmax_ns, 13'000.0);
  EXPECT_GT(cal.bound.pi_ns, 8'000.0);
  EXPECT_LT(cal.bound.pi_ns, 20'000.0);
  EXPECT_GT(cal.gamma_ns, 0.0);
  EXPECT_LT(cal.gamma_ns, 3'000.0);
  EXPECT_DOUBLE_EQ(cal.bound.drift_offset_ns, 1'250.0); // Gamma = 2*5ppm*125ms
  EXPECT_DOUBLE_EQ(cal.bound.multiplier, 2.0);          // u(4,1)
}

TEST(FullSystemTest, FaultFreePrecisionBounded) {
  Scenario scenario(ScenarioConfig{});
  ExperimentHarness harness(scenario);
  harness.bring_up();
  const auto cal = harness.calibrate();
  harness.run_measured(3_min);
  const auto& series = scenario.probe().series();
  ASSERT_GT(series.points().size(), 150u);
  EXPECT_DOUBLE_EQ(bound_holding_fraction(series, cal.bound.pi_ns, cal.gamma_ns), 1.0);
  const auto st = series.stats();
  EXPECT_LT(st.mean(), 1'500.0); // paper: avg 322 ns over 24 h
  EXPECT_GT(st.mean(), 10.0);    // sanity: jitter exists
}

TEST(FullSystemTest, SingleByzantineGmMasked) {
  Scenario scenario(ScenarioConfig{});
  ExperimentHarness harness(scenario);
  harness.bring_up();
  const auto cal = harness.calibrate();
  scenario.gm_vm(2).compromise(-24'000);
  harness.run_measured(3_min);
  EXPECT_DOUBLE_EQ(
      bound_holding_fraction(scenario.probe().series(), cal.bound.pi_ns, cal.gamma_ns), 1.0);
  EXPECT_LT(scenario.probe().series().stats().mean(), 2'000.0);
}

TEST(FullSystemTest, TwoByzantineGmsBreakSynchronization) {
  Scenario scenario(ScenarioConfig{});
  ExperimentHarness harness(scenario);
  harness.bring_up();
  const auto cal = harness.calibrate();
  scenario.gm_vm(0).compromise(-24'000);
  scenario.gm_vm(3).compromise(-24'000);
  harness.run_measured(10_min);
  // The bound must be violated (f = 1 exceeded).
  EXPECT_LT(bound_holding_fraction(scenario.probe().series(), cal.bound.pi_ns, cal.gamma_ns),
            0.9);
  EXPECT_GT(scenario.probe().series().stats().max(), cal.bound.pi_ns + cal.gamma_ns);
}

TEST(FullSystemTest, KernelDiversityBlocksSecondExploit) {
  ScenarioConfig cfg;
  cfg.gm_kernels = {"4.19.1", "5.4.0", "5.10.0", "6.1.0"}; // only GM 1 vulnerable
  Scenario scenario(cfg);
  ExperimentHarness harness(scenario);
  harness.bring_up();
  const auto cal = harness.calibrate();

  attack::AttackDriver attacker;
  attacker.arm(scenario, {{.kind = attack::AttackKind::kKernelExploit,
                           .ecd = 0,
                           .start_ns = 10_s,
                           .magnitude = -24'000.0},
                          {.kind = attack::AttackKind::kKernelExploit,
                           .ecd = 1,
                           .start_ns = 30_s,
                           .magnitude = -24'000.0}});
  harness.run_measured(3_min);

  EXPECT_EQ(attacker.exploits_attempted(), 2u);
  EXPECT_EQ(attacker.exploits_rooted(), 1u);
  EXPECT_TRUE(scenario.gm_vm(0).compromised());
  EXPECT_FALSE(scenario.gm_vm(1).compromised());
  EXPECT_DOUBLE_EQ(
      bound_holding_fraction(scenario.probe().series(), cal.bound.pi_ns, cal.gamma_ns), 1.0);
}

TEST(FullSystemTest, FailSilentGmMaskedWithTakeover) {
  Scenario scenario(ScenarioConfig{});
  ExperimentHarness harness(scenario);
  harness.bring_up();
  const auto cal = harness.calibrate();
  // Kill the GM of domain 2 (its VM is the active CLOCK_SYNCTIME keeper).
  scenario.sim().at(scenario.sim().now() + 30_s, [&] { scenario.gm_vm(1).shutdown(); });
  harness.run_measured(3_min);
  EXPECT_EQ(harness.events().count(EventKind::kVmFailure), 1u);
  EXPECT_EQ(harness.events().count(EventKind::kTakeover), 1u);
  EXPECT_TRUE(scenario.vm(1, 1).is_active());
  // Precision stays bounded throughout: the dependent clock failed over
  // and the remaining three domains carry the FTA.
  EXPECT_DOUBLE_EQ(
      bound_holding_fraction(scenario.probe().series(), cal.bound.pi_ns, cal.gamma_ns), 1.0);
}

TEST(FullSystemTest, RebootedGmRejoinsAndResumesService) {
  Scenario scenario(ScenarioConfig{});
  ExperimentHarness harness(scenario);
  harness.bring_up();
  const auto cal = harness.calibrate();
  scenario.sim().at(scenario.sim().now() + 20_s, [&] { scenario.gm_vm(1).shutdown(); });
  scenario.sim().at(scenario.sim().now() + 80_s, [&] { scenario.gm_vm(1).boot(false); });
  harness.run_measured(4_min);
  EXPECT_TRUE(scenario.gm_vm(1).running());
  EXPECT_EQ(harness.events().count(EventKind::kVmRecovery), 1u);
  // The rebooted GM is transmitting again and nobody exceeded the bound.
  ASSERT_NE(scenario.gm_vm(1).stack(), nullptr);
  EXPECT_GT(scenario.gm_vm(1).stack()->instance_for_domain(2)->counters().syncs_sent, 100u);
  EXPECT_DOUBLE_EQ(
      bound_holding_fraction(scenario.probe().series(), cal.bound.pi_ns, cal.gamma_ns), 1.0);
}

TEST(FullSystemTest, InjectorRespectsFaultHypothesis) {
  Scenario scenario(ScenarioConfig{});
  ExperimentHarness harness(scenario);
  harness.bring_up();
  faults::InjectorConfig icfg;
  icfg.gm_kill_period_ns = 30_s;
  icfg.gm_downtime_ns = 20_s;
  icfg.standby_kills_per_hour = 120.0;
  icfg.standby_min_gap_ns = 10_s;
  icfg.standby_downtime_ns = 20_s;
  faults::FaultInjector injector(scenario.sim(), scenario.ecd_ptrs(), icfg);
  injector.spare(&scenario.measurement_vm());
  injector.start();
  harness.run_measured(5_min);
  EXPECT_GT(injector.stats().total_kills, 8u);
  // At no point were both VMs of one ECD down: every ECD always kept a
  // CLOCK_SYNCTIME publisher, so the probe never lost a whole node pair.
  for (const auto& ev : injector.events()) {
    EXPECT_NE(ev.vm, scenario.measurement_vm().name());
  }
}

TEST(FullSystemTest, MeshPortMappingConsistent) {
  Scenario scenario(ScenarioConfig{});
  for (std::size_t x = 0; x < 4; ++x) {
    std::set<std::size_t> used{0, 1};
    for (std::size_t y = 0; y < 4; ++y) {
      if (x == y) continue;
      const std::size_t p = scenario.mesh_port(x, y);
      EXPECT_GE(p, 2u);
      EXPECT_LE(p, 4u);
      EXPECT_TRUE(used.insert(p).second) << "duplicate port on switch " << x;
    }
  }
}

TEST(FullSystemTest, AggregationAblationMedianAlsoConverges) {
  ScenarioConfig cfg;
  cfg.aggregation = core::AggregationMethod::kMedian;
  Scenario scenario(cfg);
  ExperimentHarness harness(scenario);
  harness.bring_up();
  harness.run_measured(2_min);
  EXPECT_LT(scenario.probe().series().stats().mean(), 2'000.0);
}

} // namespace
} // namespace tsn::experiments
