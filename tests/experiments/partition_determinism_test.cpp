// The partitioned runtime's headline guarantee: for a fixed scenario
// seed, every partitions >= 1 (worker shard count) and every thread
// schedule produces byte-identical results -- merged experiment event
// log, metrics snapshot, injector event sequence and invariant-oracle
// verdicts. The regions and boundary tie-break keys are fixed by the
// model, not by which shard happened to run a region, so this is a
// structural property; these tests are the matrix that pins it.
//
// (The serial path partitions=0 keeps the legacy single-queue RNG
// streams and intentionally differs numerically; it is not part of the
// identity matrix.)
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "check/world.hpp"
#include "experiments/harness.hpp"
#include "faults/injector.hpp"
#include "sweep/sweep_runner.hpp"
#include "util/str.hpp"

namespace {

using namespace tsn;

experiments::ScenarioConfig make_cfg(std::size_t ecds, experiments::TopologyKind topo,
                                     std::size_t domains, std::size_t partitions) {
  experiments::ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.num_ecds = ecds;
  cfg.topology = topo;
  cfg.num_domains = domains;
  cfg.partitions = partitions;
  return cfg;
}

/// Run `run_ns` from a cold start (determinism does not need the full
/// bring-up; startup-phase traffic exercises the same cross-region
/// machinery) and serialize everything observable into one string.
std::string run_fingerprint(const experiments::ScenarioConfig& cfg, std::int64_t run_ns,
                            bool with_faults) {
  experiments::Scenario scenario(cfg);
  experiments::ExperimentHarness harness(scenario);
  scenario.start();

  check::InvariantSuite suite(scenario);
  check::SuiteParams sp;
  sp.bound_ns = 1e9; // generous: the verdicts must be deterministic, not clean
  suite.add_default_invariants(sp);

  faults::FaultInjector injector(scenario.control_sim(), scenario.ecd_ptrs(), {});
  if (scenario.partitioned()) {
    std::vector<std::size_t> regions(scenario.num_ecds());
    for (std::size_t r = 0; r < regions.size(); ++r) regions[r] = r;
    injector.set_partitioned(scenario.runtime(), std::move(regions), /*home_region=*/0);
  }
  suite.observe(injector);
  suite.arm();
  if (with_faults) {
    faults::ReplaySchedule sched;
    sched.faults.push_back({1'200'000'001LL, 1 % cfg.num_ecds, 0, 2'000'000'001LL});
    sched.faults.push_back({2'400'000'003LL, 2 % cfg.num_ecds, 1, 1'500'000'001LL});
    injector.run(sched);
  }

  const std::int64_t step = 500'000'000;
  const std::int64_t end = scenario.now_ns() + run_ns;
  while (scenario.now_ns() < end) {
    scenario.run_to(std::min(end, scenario.now_ns() + step));
    suite.poll_now();
  }
  suite.finalize();

  std::string fp;
  for (const auto& e : harness.events().events()) {
    fp += util::format("ev %lld %s %s %s\n", (long long)e.t_ns, experiments::to_string(e.kind),
                       e.subject.c_str(), e.detail.c_str());
  }
  for (const auto& ev : injector.events()) {
    fp += util::format("inj %lld %s gm=%d reboot=%d\n", (long long)ev.at_ns, ev.vm.c_str(),
                       ev.was_gm ? 1 : 0, ev.is_reboot ? 1 : 0);
  }
  fp += "suite: " + suite.summary() + "\n";
  fp += scenario.metrics_snapshot().to_csv();
  return fp;
}

TEST(PartitionDeterminism, ShardCountMatrixByteIdentical) {
  // 8-ECD ring, 4 domains, scripted kills: every shard count must agree.
  const std::string p1 =
      run_fingerprint(make_cfg(8, experiments::TopologyKind::kRing, 4, 1), 4'000'000'000LL, true);
  const std::string p2 =
      run_fingerprint(make_cfg(8, experiments::TopologyKind::kRing, 4, 2), 4'000'000'000LL, true);
  const std::string p4 =
      run_fingerprint(make_cfg(8, experiments::TopologyKind::kRing, 4, 4), 4'000'000'000LL, true);
  EXPECT_FALSE(p1.empty());
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1, p4);
}

TEST(PartitionDeterminism, RepeatRunByteIdentical) {
  const experiments::ScenarioConfig cfg = make_cfg(8, experiments::TopologyKind::kTree, 4, 4);
  const std::string a = run_fingerprint(cfg, 3'000'000'000LL, true);
  const std::string b = run_fingerprint(cfg, 3'000'000'000LL, true);
  EXPECT_EQ(a, b);
}

TEST(PartitionDeterminism, SweepThreadScheduleByteIdentical) {
  // The same partitioned replica executed inline and on SweepRunner
  // worker threads (two at once, racing for cores): the thread schedule
  // must not leak into the results.
  const experiments::ScenarioConfig cfg = make_cfg(8, experiments::TopologyKind::kRing, 4, 2);
  const std::string inline_fp = run_fingerprint(cfg, 2'000'000'000LL, true);

  sweep::SweepRunner runner({.threads = 4});
  const auto fps = runner.run_indexed(
      2, [&](std::size_t) { return run_fingerprint(cfg, 2'000'000'000LL, true); });
  ASSERT_EQ(fps.size(), 2u);
  EXPECT_EQ(fps[0], inline_fp);
  EXPECT_EQ(fps[1], inline_fp);
}

TEST(PartitionDeterminism, Scale64RingByteIdentical) {
  // The issue's acceptance matrix: 64 ECDs, partitions in {1, 2, 4, 8}.
  // One simulated second keeps the test affordable; every protocol
  // (sync, monitors, startup phase, boundary frames) is already running.
  const experiments::ScenarioConfig base =
      make_cfg(64, experiments::TopologyKind::kRing, 8, 1);
  const std::string p1 = run_fingerprint(base, 1'000'000'000LL, false);
  for (std::size_t p : {2u, 4u, 8u}) {
    experiments::ScenarioConfig cfg = base;
    cfg.partitions = p;
    EXPECT_EQ(run_fingerprint(cfg, 1'000'000'000LL, false), p1) << "partitions=" << p;
  }
}

TEST(PartitionDeterminism, Scale64TreeByteIdentical) {
  const experiments::ScenarioConfig base =
      make_cfg(64, experiments::TopologyKind::kTree, 8, 1);
  const std::string p1 = run_fingerprint(base, 1'000'000'000LL, false);
  experiments::ScenarioConfig cfg = base;
  cfg.partitions = 8;
  EXPECT_EQ(run_fingerprint(cfg, 1'000'000'000LL, false), p1);
}

/// A tsnfta_sim-style exploit world through check::run_world with pcap
/// capture: two kernel exploits and two timer-skew attacks whose edges
/// fire at one instant on four regions. Serializes the Pi* series, the
/// event log and the capture file.
std::string exploit_world_fingerprint(std::size_t partitions, const std::string& pcap) {
  check::WorldSpec spec;
  spec.scenario.seed = 5;
  spec.scenario.partitions = partitions;
  spec.rounds = 5;
  spec.probe = true;
  spec.horizon_ns = 20'000'000'000LL;
  spec.pcap = pcap;
  const std::int64_t at = 5'000'000'001LL;
  for (const std::size_t ecd : {1u, 3u}) {
    spec.attacks.push_back({.kind = attack::AttackKind::kKernelExploit,
                            .ecd = ecd,
                            .start_ns = at,
                            .magnitude = -24'000.0});
  }
  for (const std::size_t ecd : {0u, 2u}) {
    spec.attacks.push_back({.kind = attack::AttackKind::kTimerSkew,
                            .ecd = ecd,
                            .start_ns = at,
                            .duration_ns = 4'000'000'000LL,
                            .magnitude = 3.0});
  }
  const check::WorldResult r = check::run_world(spec);
  std::string fp = util::format("rooted %zu of %zu, %llu frames\n", r.exploits_rooted,
                                r.exploits_attempted, (unsigned long long)r.pcap_frames);
  for (const auto& p : r.series.points()) {
    fp += util::format("pi* %lld %.17g\n", (long long)p.t_ns, p.value);
  }
  for (const auto& e : r.log.events()) {
    fp += util::format("ev %lld %s %s %s\n", (long long)e.t_ns, experiments::to_string(e.kind),
                       e.subject.c_str(), e.detail.c_str());
  }
  std::ifstream in(pcap, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return fp + bytes.str();
}

TEST(PartitionDeterminism, ExploitWorldSeriesEventsAndPcapIdentical) {
  // Exploits and pcap capture run on partitioned worlds; same-time attack
  // edges on different shards must not race on the driver's bookkeeping.
  const std::string dir = ::testing::TempDir();
  const std::string p1 = exploit_world_fingerprint(1, dir + "exploit_p1.pcap");
  EXPECT_NE(p1.find("rooted 2 of 2"), std::string::npos) << p1.substr(0, 64);
  EXPECT_NE(p1.find("root obtained"), std::string::npos);
  for (const std::size_t p : {2u, 4u}) {
    EXPECT_EQ(exploit_world_fingerprint(p, util::format("%sexploit_p%zu.pcap", dir.c_str(), p)), p1)
        << "partitions=" << p;
  }
}

} // namespace
