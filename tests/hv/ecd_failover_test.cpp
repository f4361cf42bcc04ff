// Ecd + monitor + ClockSyncVm fail-over tests. The VMs' NICs are left
// unconnected: heartbeats and CLOCK_SYNCTIME maintenance do not need the
// network, which keeps these tests focused on the dependent-clock logic.
#include <gtest/gtest.h>

#include <cmath>

#include "hv/ecd.hpp"
#include "net/link.hpp"

namespace tsn::hv {
namespace {

using tsn::sim::SimTime;
using tsn::sim::Simulation;
using namespace tsn::sim::literals;

time::PhcModel quiet(double drift_ppm = 0.0) {
  time::PhcModel m;
  m.oscillator.initial_drift_ppm = drift_ppm;
  m.oscillator.wander_sigma_ppm = 0.0;
  m.timestamp_jitter_ns = 0.0;
  return m;
}

ClockSyncVmConfig vm_cfg(const std::string& name, std::uint64_t mac, double drift = 0.0) {
  ClockSyncVmConfig cfg;
  cfg.name = name;
  cfg.mac = net::MacAddress::from_u64(mac);
  cfg.phc = quiet(drift);
  cfg.domains = {1, 2, 3, 4};
  cfg.coordinator.initial_domain = 1;
  return cfg;
}

struct Fixture {
  Simulation sim{17};
  Ecd ecd;

  Fixture() : ecd(sim, {"ecd1", quiet(1.0), {}}) {
    ecd.add_clock_sync_vm(vm_cfg("c11", 0x11, 2.0));
    ecd.add_clock_sync_vm(vm_cfg("c12", 0x12, -2.0));
  }
};

TEST(EcdTest, StartBootsVmsAndPublishes) {
  Fixture f;
  f.ecd.start();
  f.sim.run_until(SimTime(2_s));
  EXPECT_TRUE(f.ecd.vm(0).running());
  EXPECT_TRUE(f.ecd.vm(1).running());
  EXPECT_TRUE(f.ecd.vm(0).is_active());
  EXPECT_FALSE(f.ecd.vm(1).is_active());
  EXPECT_TRUE(f.ecd.read_synctime().has_value());
  EXPECT_EQ(f.ecd.st_shmem().active_vm(), 0u);
}

TEST(EcdTest, SynctimeFollowsActiveVmPhc) {
  Fixture f;
  f.ecd.start();
  f.sim.run_until(SimTime(10_s));
  const auto st = f.ecd.read_synctime();
  ASSERT_TRUE(st.has_value());
  EXPECT_NEAR(static_cast<double>(*st - f.ecd.vm(0).nic().phc().read()), 0.0, 100.0);
}

TEST(EcdTest, MonitorDetectsFailSilentActiveAndFailsOver) {
  Fixture f;
  int failures = 0, takeovers = 0;
  std::size_t takeover_vm = 99;
  f.ecd.monitor().on_vm_failure = [&](std::size_t) { ++failures; };
  f.ecd.monitor().on_takeover = [&](std::size_t idx) {
    ++takeovers;
    takeover_vm = idx;
  };
  f.ecd.start();
  f.sim.at(SimTime(5_s), [&] { f.ecd.vm(0).shutdown(); });
  f.sim.run_until(SimTime(7_s));
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(takeovers, 1);
  EXPECT_EQ(takeover_vm, 1u);
  EXPECT_TRUE(f.ecd.vm(1).is_active());
  EXPECT_EQ(f.ecd.st_shmem().active_vm(), 1u);
  EXPECT_GE(f.ecd.st_shmem().generation(), 1u);
  // CLOCK_SYNCTIME still progresses from the standby's clock.
  EXPECT_TRUE(f.ecd.read_synctime().has_value());
}

TEST(EcdTest, FailoverLatencyWithinMonitorBudget) {
  // Detection needs heartbeat_timeout (400 ms) + <= 1 monitor period.
  Fixture f;
  std::int64_t takeover_time = -1;
  f.ecd.monitor().on_takeover = [&](std::size_t) { takeover_time = f.sim.now().ns(); };
  f.ecd.start();
  f.sim.at(SimTime(5_s), [&] { f.ecd.vm(0).shutdown(); });
  f.sim.run_until(SimTime(10_s));
  ASSERT_GT(takeover_time, 0);
  const std::int64_t latency = takeover_time - 5_s;
  EXPECT_LE(latency, 400_ms + 2 * 125_ms);
  EXPECT_GE(latency, 125_ms);
}

TEST(EcdTest, SynctimeContinuousAcrossTakeover) {
  Fixture f;
  f.ecd.start();
  f.sim.run_until(SimTime(5_s));
  std::int64_t before = *f.ecd.read_synctime();
  const std::int64_t t_before = f.sim.now().ns();
  f.ecd.vm(0).shutdown();
  f.sim.run_until(SimTime(8_s));
  const std::int64_t after = *f.ecd.read_synctime();
  const std::int64_t elapsed_true = f.sim.now().ns() - t_before;
  // Continuity: synctime advanced by ~3 s, no huge step. The two VM clocks
  // free-run (no network here) at +/-2 ppm, so allow drift * elapsed.
  EXPECT_NEAR(static_cast<double>(after - before), static_cast<double>(elapsed_true),
              4e-6 * static_cast<double>(f.sim.now().ns()) + 1000.0);
}

TEST(EcdTest, RebootedVmBecomesStandby) {
  Fixture f;
  int recoveries = 0;
  f.ecd.monitor().on_vm_recovery = [&](std::size_t idx) {
    ++recoveries;
    EXPECT_EQ(idx, 0u);
  };
  f.ecd.start();
  f.sim.at(SimTime(5_s), [&] { f.ecd.vm(0).shutdown(); });
  f.sim.at(SimTime(20_s), [&] { f.ecd.vm(0).boot(/*first_boot=*/false); });
  f.sim.run_until(SimTime(25_s));
  EXPECT_EQ(recoveries, 1);
  EXPECT_TRUE(f.ecd.vm(0).running());
  // No fail-back: VM 1 keeps maintaining CLOCK_SYNCTIME.
  EXPECT_TRUE(f.ecd.vm(1).is_active());
  EXPECT_FALSE(f.ecd.vm(0).is_active());
  EXPECT_EQ(f.ecd.st_shmem().active_vm(), 1u);
}

TEST(EcdTest, SecondFailoverBackToRebootedVm) {
  Fixture f;
  f.ecd.start();
  f.sim.at(SimTime(5_s), [&] { f.ecd.vm(0).shutdown(); });
  f.sim.at(SimTime(20_s), [&] { f.ecd.vm(0).boot(false); });
  f.sim.at(SimTime(30_s), [&] { f.ecd.vm(1).shutdown(); });
  f.sim.run_until(SimTime(35_s));
  EXPECT_TRUE(f.ecd.vm(0).is_active());
  EXPECT_EQ(f.ecd.st_shmem().active_vm(), 0u);
  EXPECT_EQ(f.ecd.monitor().stats().takeovers, 2u);
}

TEST(EcdTest, BothVmsDownNoTakeoverTarget) {
  Fixture f;
  f.ecd.start();
  f.sim.at(SimTime(5_s), [&] {
    f.ecd.vm(0).shutdown();
    f.ecd.vm(1).shutdown();
  });
  f.sim.run_until(SimTime(8_s));
  EXPECT_EQ(f.ecd.monitor().stats().takeovers, 0u);
  EXPECT_EQ(f.ecd.monitor().stats().failures_detected, 2u);
}

TEST(EcdTest, ShutdownIsIdempotentAndBootAfterShutdownWorks) {
  Fixture f;
  f.ecd.start();
  f.sim.run_until(SimTime(2_s));
  f.ecd.vm(0).shutdown();
  f.ecd.vm(0).shutdown(); // no-op
  EXPECT_FALSE(f.ecd.vm(0).running());
  f.ecd.vm(0).boot(false);
  f.ecd.vm(0).boot(false); // no-op
  EXPECT_TRUE(f.ecd.vm(0).running());
}

TEST(EcdTest, CompromiseBeforeBootAppliesAfterBuild) {
  Simulation sim{5};
  Ecd ecd(sim, {"ecd", quiet(), {}});
  auto cfg = vm_cfg("gm", 0x21);
  cfg.gm_domain = 1;
  auto& vm = ecd.add_clock_sync_vm(cfg);
  vm.compromise(-24'000);
  ecd.start();
  ASSERT_NE(vm.stack(), nullptr);
  auto* inst = vm.stack()->instance_for_domain(1);
  ASSERT_NE(inst, nullptr);
  EXPECT_TRUE(inst->is_malicious());
  EXPECT_TRUE(vm.compromised());
}

TEST(EcdTest, GmShutdownCancelsPendingSyncWork) {
  // A GM VM killed with its sync-chain hop pending (0.55 s) or with its
  // Sync waiting in the ETF queue (0.999 s, 1 ms before the launch
  // boundary): shutdown cancels that event, so nothing queued still points
  // into the destroyed gPTP stack, and the rebooted GM's new stack syncs on.
  for (const std::int64_t kill_at : {550_ms, 999_ms}) {
    Simulation sim{5};
    Ecd ecd(sim, {"ecd", quiet(), {}});
    auto cfg = vm_cfg("gm", 0x21);
    cfg.gm_domain = 1;
    ClockSyncVm& gm = ecd.add_clock_sync_vm(cfg);
    net::Nic peer(sim, quiet(), net::MacAddress::from_u64(0x99), "peer");
    net::LinkConfig lc;
    lc.a_to_b = {500, 0.0};
    lc.b_to_a = {500, 0.0};
    net::Link link(sim, gm.nic().port(), peer.port(), lc, "gm-peer");
    ecd.start();
    sim.run_until(SimTime(kill_at));
    const std::uint64_t cancelled = sim.queue().stats().cancelled;
    gm.shutdown();
    EXPECT_EQ(sim.queue().stats().cancelled, cancelled + 1) << kill_at;
    sim.run_until(SimTime(kill_at + 2_s));
    gm.boot(false);
    sim.run_until(SimTime(kill_at + 4_s));
    EXPECT_GE(gm.stack()->instance_for_domain(1)->counters().syncs_sent, 10u) << kill_at;
  }
}

} // namespace
} // namespace tsn::hv
