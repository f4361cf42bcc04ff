#include <gtest/gtest.h>

#include "faults/injector.hpp"
#include "faults/kernel_vuln.hpp"
#include "hv/ecd.hpp"

namespace tsn::faults {
namespace {

using tsn::sim::SimTime;
using tsn::sim::Simulation;
using namespace tsn::sim::literals;

TEST(KernelVulnDbTest, DefaultsCoverCve201818955) {
  const auto db = KernelVulnDb::with_defaults();
  EXPECT_TRUE(db.vulnerable("4.19.1", kCve2018_18955));
  EXPECT_TRUE(db.vulnerable("4.15.0", kCve2018_18955));
  EXPECT_FALSE(db.vulnerable("4.19.2", kCve2018_18955));
  EXPECT_FALSE(db.vulnerable("5.10.0", kCve2018_18955));
  EXPECT_FALSE(db.vulnerable("4.19.1", "CVE-0000-0000"));
}

TEST(KernelVulnDbTest, AddExtendsAffectedSet) {
  KernelVulnDb db;
  EXPECT_FALSE(db.vulnerable("6.1.0", "CVE-X"));
  db.add("CVE-X", "6.1.0");
  EXPECT_TRUE(db.vulnerable("6.1.0", "CVE-X"));
}

time::PhcModel quiet() {
  time::PhcModel m;
  m.oscillator.initial_drift_ppm = 0.0;
  m.oscillator.wander_sigma_ppm = 0.0;
  return m;
}

hv::ClockSyncVmConfig vm_cfg(const std::string& name, std::uint64_t mac,
                             const std::string& kernel, bool gm) {
  hv::ClockSyncVmConfig cfg;
  cfg.name = name;
  cfg.mac = net::MacAddress::from_u64(mac);
  cfg.phc = quiet();
  cfg.domains = {1, 2, 3, 4};
  cfg.kernel_version = kernel;
  if (gm) cfg.gm_domain = 1;
  return cfg;
}

TEST(InjectorTest, NeverKillsBothVmsOfANode) {
  Simulation sim{3};
  hv::Ecd ecd(sim, {"ecd", quiet(), {}});
  ecd.add_clock_sync_vm(vm_cfg("vm0", 0xB1, "5.4.0", true));
  ecd.add_clock_sync_vm(vm_cfg("vm1", 0xB2, "5.4.0", false));
  ecd.start();

  InjectorConfig cfg;
  cfg.gm_kill_period_ns = 2_s;
  cfg.gm_downtime_ns = 10_s; // long downtime forces overlap attempts
  cfg.standby_kills_per_hour = 3600.0;
  cfg.standby_min_gap_ns = 1_s;
  cfg.standby_downtime_ns = 10_s;
  FaultInjector injector(sim, {&ecd}, cfg);
  injector.start();
  sim.run_until(SimTime(60_s));

  EXPECT_GT(injector.stats().total_kills, 3u);
  EXPECT_GT(injector.stats().skipped_fault_hypothesis, 0u);
  // Replay the event log: at most one VM of the node down at any time.
  int down = 0;
  for (const auto& ev : injector.events()) {
    down += ev.is_reboot ? -1 : 1;
    EXPECT_GE(down, 0);
    EXPECT_LE(down, 1);
  }
}

TEST(InjectorTest, SparedVmIsNeverKilled) {
  Simulation sim{3};
  hv::Ecd ecd(sim, {"ecd", quiet(), {}});
  ecd.add_clock_sync_vm(vm_cfg("vm0", 0xB1, "5.4.0", true));
  ecd.add_clock_sync_vm(vm_cfg("vm1", 0xB2, "5.4.0", false));
  ecd.start();
  InjectorConfig cfg;
  cfg.gm_kill_period_ns = 500_ms;
  cfg.gm_downtime_ns = 100_ms;
  cfg.standby_kills_per_hour = 3600.0;
  cfg.standby_min_gap_ns = 500_ms;
  cfg.standby_downtime_ns = 100_ms;
  FaultInjector injector(sim, {&ecd}, cfg);
  injector.spare(&ecd.vm(1));
  injector.start();
  sim.run_until(SimTime(30_s));
  for (const auto& ev : injector.events()) EXPECT_NE(ev.vm, "vm1");
  EXPECT_GT(injector.stats().gm_kills, 10u);
  EXPECT_EQ(injector.stats().standby_kills, 0u);
}

TEST(InjectorTest, GmKillsRotateAcrossEcds) {
  Simulation sim{3};
  std::vector<std::unique_ptr<hv::Ecd>> ecds;
  std::vector<hv::Ecd*> ptrs;
  for (int x = 0; x < 3; ++x) {
    ecds.push_back(std::make_unique<hv::Ecd>(sim, hv::EcdConfig{"e" + std::to_string(x), quiet(), {}}));
    ecds.back()->add_clock_sync_vm(
        vm_cfg("gm" + std::to_string(x), 0xC0 + x, "5.4.0", true));
    ecds.back()->add_clock_sync_vm(
        vm_cfg("sb" + std::to_string(x), 0xD0 + x, "5.4.0", false));
    ecds.back()->start();
    ptrs.push_back(ecds.back().get());
  }
  InjectorConfig cfg;
  cfg.gm_kill_period_ns = 1_s;
  cfg.gm_downtime_ns = 500_ms;
  cfg.standby_kills_per_hour = 0.0001; // effectively off
  FaultInjector injector(sim, ptrs, cfg);
  injector.start();
  sim.run_until(SimTime(6_s + 500_ms));
  // 6 GM kill slots over 3 ECDs: each GM killed exactly twice.
  std::map<std::string, int> kills;
  for (const auto& ev : injector.events()) {
    if (!ev.is_reboot) ++kills[ev.vm];
  }
  EXPECT_EQ(kills.size(), 3u);
  for (const auto& [vm, n] : kills) EXPECT_EQ(n, 2) << vm;
}

TEST(InjectorTest, RebootPastRunEndStaysPendingInAccounting) {
  // Regression: a reboot scheduled beyond the end of the scenario used to
  // vanish silently -- total_kills drifted away from reboots and the
  // conservation identity could never hold at finalize time.
  Simulation sim{3};
  hv::Ecd ecd(sim, {"ecd", quiet(), {}});
  ecd.add_clock_sync_vm(vm_cfg("vm0", 0xB1, "5.4.0", true));
  ecd.add_clock_sync_vm(vm_cfg("vm1", 0xB2, "5.4.0", false));
  ecd.start();

  FaultInjector injector(sim, {&ecd}, InjectorConfig{});
  ReplaySchedule schedule;
  schedule.faults.push_back({1_s, 0, 0, 10_s}); // reboot would fire at 11s
  injector.run(schedule);
  sim.run_until(SimTime(5_s)); // stop before the reboot

  EXPECT_EQ(injector.stats().total_kills, 1u);
  EXPECT_EQ(injector.stats().reboots, 0u);
  EXPECT_EQ(injector.stats().pending_reboots, 1u);
  EXPECT_FALSE(ecd.vm(0).running());

  // Once the reboot fires, the identity rebalances.
  sim.run_until(SimTime(12_s));
  EXPECT_EQ(injector.stats().reboots, 1u);
  EXPECT_EQ(injector.stats().pending_reboots, 0u);
  EXPECT_EQ(injector.stats().total_kills,
            injector.stats().reboots + injector.stats().pending_reboots);
  EXPECT_TRUE(ecd.vm(0).running());
}

TEST(InjectorTest, RawReplayExecutesDoubleKill) {
  Simulation sim{3};
  hv::Ecd ecd(sim, {"ecd", quiet(), {}});
  ecd.add_clock_sync_vm(vm_cfg("vm0", 0xB1, "5.4.0", true));
  ecd.add_clock_sync_vm(vm_cfg("vm1", 0xB2, "5.4.0", false));
  ecd.start();

  FaultInjector injector(sim, {&ecd}, InjectorConfig{});
  ReplaySchedule schedule;
  schedule.raw = true;
  schedule.faults.push_back({1_s, 0, 0, 20_s});
  schedule.faults.push_back({2_s, 0, 1, 20_s});
  injector.run(schedule);
  sim.run_until(SimTime(3_s));

  // Raw mode deliberately breaks the fault hypothesis: both kills execute.
  EXPECT_EQ(injector.stats().total_kills, 2u);
  EXPECT_EQ(injector.stats().skipped_fault_hypothesis, 0u);
  EXPECT_FALSE(ecd.vm(0).running());
  EXPECT_FALSE(ecd.vm(1).running());
}

TEST(InjectorTest, NonRawReplayRespectsFaultHypothesis) {
  Simulation sim{3};
  hv::Ecd ecd(sim, {"ecd", quiet(), {}});
  ecd.add_clock_sync_vm(vm_cfg("vm0", 0xB1, "5.4.0", true));
  ecd.add_clock_sync_vm(vm_cfg("vm1", 0xB2, "5.4.0", false));
  ecd.start();

  FaultInjector injector(sim, {&ecd}, InjectorConfig{});
  ReplaySchedule schedule; // raw defaults to false
  schedule.faults.push_back({1_s, 0, 0, 20_s});
  schedule.faults.push_back({2_s, 0, 1, 20_s}); // peer still down -> skipped
  injector.run(schedule);
  sim.run_until(SimTime(3_s));

  EXPECT_EQ(injector.stats().total_kills, 1u);
  EXPECT_EQ(injector.stats().skipped_fault_hypothesis, 1u);
  EXPECT_FALSE(ecd.vm(0).running());
  EXPECT_TRUE(ecd.vm(1).running());
}

TEST(InjectorTest, ReplayIgnoresSpareList) {
  // A replay must reproduce its recording exactly -- the spare list only
  // shapes randomized schedules.
  Simulation sim{3};
  hv::Ecd ecd(sim, {"ecd", quiet(), {}});
  ecd.add_clock_sync_vm(vm_cfg("vm0", 0xB1, "5.4.0", true));
  ecd.add_clock_sync_vm(vm_cfg("vm1", 0xB2, "5.4.0", false));
  ecd.start();

  FaultInjector injector(sim, {&ecd}, InjectorConfig{});
  injector.spare(&ecd.vm(0));
  ReplaySchedule schedule;
  schedule.faults.push_back({1_s, 0, 0, 2_s});
  injector.run(schedule);
  sim.run_until(SimTime(2_s));

  EXPECT_EQ(injector.stats().total_kills, 1u);
  ASSERT_FALSE(injector.events().empty());
  EXPECT_EQ(injector.events().front().vm, "vm0");
}

} // namespace
} // namespace tsn::faults
