// Google-benchmark microbenchmarks for the hot paths of the library:
// the FTA itself, FTSHMEM primitives, the event queue, the PI servo, the
// wire format, and the clock models.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "alloc_hook.hpp"
#include "core/coordinator.hpp"
#include "core/ft_shmem.hpp"
#include "core/fta.hpp"
#include "core/seqlock.hpp"
#include "experiments/harness.hpp"
#include "experiments/scenario.hpp"
#include "gptp/bridge.hpp"
#include "gptp/messages.hpp"
#include "gptp/servo.hpp"
#include "gptp/stack.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/switch.hpp"
#include "sim/fast_forward.hpp"
#include "sim/simulation.hpp"
#include "tsn_time/phc_clock.hpp"
#include "util/rng.hpp"

namespace {

using namespace tsn;

/// Steady-state allocation count for the zero-allocation contract: tick()
/// at the top of every timed iteration, report() after the loop. Sampling
/// at iteration boundaries (not around the whole loop) keeps out the
/// couple of allocations the framework makes starting/stopping its timers,
/// which would otherwise smear ~2 allocs/run over allocs_per_iter.
class AllocsPerIter {
 public:
  void tick() {
    const std::uint64_t now = bench::alloc_count();
    if (iters_++ == 0) first_ = now;
    last_ = now;
  }
  void report(benchmark::State& state) const {
    if (!bench::alloc_hook_active() || iters_ < 2) return;
    state.counters["allocs_per_iter"] =
        static_cast<double>(last_ - first_) / static_cast<double>(iters_ - 1);
  }

 private:
  std::uint64_t first_ = 0;
  std::uint64_t last_ = 0;
  std::uint64_t iters_ = 0;
};

void BM_FtaAggregate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::RngStream rng(1, "bm-fta");
  std::vector<double> values;
  for (int i = 0; i < n; ++i) values.push_back(rng.uniform(-1e6, 1e6));
  std::vector<double> scratch(values.size());
  for (auto _ : state) {
    std::copy(values.begin(), values.end(), scratch.begin());
    benchmark::DoNotOptimize(core::fault_tolerant_average(scratch, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FtaAggregate)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_Median(benchmark::State& state) {
  util::RngStream rng(1, "bm-med");
  std::vector<double> values;
  for (int i = 0; i < state.range(0); ++i) values.push_back(rng.uniform(-1e6, 1e6));
  std::vector<double> scratch(values.size());
  for (auto _ : state) {
    std::copy(values.begin(), values.end(), scratch.begin());
    benchmark::DoNotOptimize(core::median(scratch));
  }
}
BENCHMARK(BM_Median)->Arg(4)->Arg(64);

// The sigma of the normal draws, 8 ns as in the HW-timestamp jitter. A
// volatile read keeps the compiler from folding it into the draw; handing
// a local to benchmark::DoNotOptimize instead miscompiles under GCC 12
// (the "+m,r" constraint leaves the stack slot the loop reads unwritten,
// so the draws were scaled by whatever the slot held).
volatile double opaque_sigma = 8.0;

void BM_RngNormal(benchmark::State& state) {
  // One RngStream::normal per item: the draw of the streams that mix
  // distributions (the probe's software-timestamp jitter).
  util::RngStream rng(1, "bm-normal");
  const double sigma = opaque_sigma;
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal(0.0, sigma));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNormal);

void BM_NormalStreamNormal(benchmark::State& state) {
  // One NormalStream::normal per item, block refills included (one per
  // 32 draws): the draw the oscillator, PHC, link and switch streams make.
  util::NormalStream rng(1, "bm-normal");
  const double sigma = opaque_sigma;
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal(0.0, sigma));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NormalStreamNormal);

void BM_RngEngineWord(benchmark::State& state) {
  // One 64-bit engine word per item, refills included (one per 312 words).
  util::RngStream rng(1, "bm-engine");
  for (auto _ : state) benchmark::DoNotOptimize(rng.engine()());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngEngineWord);

void BM_SeqLockStore(benchmark::State& state) {
  core::SeqLock<core::GmOffsetRecord> lock;
  core::GmOffsetRecord rec;
  rec.offset_ns = 42.0;
  for (auto _ : state) {
    lock.store(rec);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SeqLockStore);

void BM_SeqLockLoad(benchmark::State& state) {
  core::SeqLock<core::GmOffsetRecord> lock;
  lock.store({});
  for (auto _ : state) {
    benchmark::DoNotOptimize(lock.load());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SeqLockLoad);

void BM_FtShmemGate(benchmark::State& state) {
  core::FtShmem shm(4);
  std::int64_t now = 0;
  for (auto _ : state) {
    now += 125;
    benchmark::DoNotOptimize(shm.try_acquire_gate(now, 125));
  }
}
BENCHMARK(BM_FtShmemGate);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue q;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.schedule(sim::SimTime(t + (i * 7919) % 1000), [] {});
    while (auto e = q.try_pop()) benchmark::DoNotOptimize(&e);
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_EventQueuePostAndPop(benchmark::State& state) {
  // The no-handle fast path Simulation::every() rides on: no slab
  // traffic, and — the zero-allocation contract — no heap traffic at all
  // once the wheel's bucket storage is warm (allocs_per_iter must be 0).
  sim::EventQueue q;
  std::int64_t t = 0;
  // Warm the wheel: every ring bucket must have grown its storage to the
  // working set before allocations are counted (the contract is zero
  // allocs in steady state, not on first touch).
  for (int w = 0; w < 8192; ++w) {
    for (int i = 0; i < 64; ++i) q.post(sim::SimTime(t + (i * 7919) % 1000), [] {});
    while (auto e = q.try_pop()) benchmark::DoNotOptimize(&e);
    t += 1000;
  }
  AllocsPerIter allocs;
  for (auto _ : state) {
    allocs.tick();
    for (int i = 0; i < 64; ++i) q.post(sim::SimTime(t + (i * 7919) % 1000), [] {});
    while (auto e = q.try_pop()) benchmark::DoNotOptimize(&e);
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
  allocs.report(state);
}
BENCHMARK(BM_EventQueuePostAndPop);

void BM_EventQueueScheduleCancelHalf(benchmark::State& state) {
  // Timeout-style usage: half the scheduled events are cancelled before
  // they fire; cancellation must stay allocation-free via the slab.
  sim::EventQueue q;
  std::vector<sim::EventHandle> handles;
  handles.reserve(64);
  std::int64_t t = 0;
  for (auto _ : state) {
    handles.clear();
    for (int i = 0; i < 64; ++i) {
      handles.push_back(q.schedule(sim::SimTime(t + (i * 7919) % 1000), [] {}));
    }
    for (int i = 0; i < 64; i += 2) handles[static_cast<std::size_t>(i)].cancel();
    while (auto e = q.try_pop()) benchmark::DoNotOptimize(&e);
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleCancelHalf);

void BM_EventQueueBurstDrain(benchmark::State& state) {
  // Same-bucket fan-out, the path-delay calibration pattern: N events in
  // one 4.096 us level-0 bucket, drained while each of the first N pops
  // posts a follow-up 1-64 ns later -- behind the cursor, into a window
  // that still holds entries. Items are the 2N events posted and popped.
  const std::int64_t n = state.range(0);
  sim::EventQueue q;
  std::int64_t t = 0;
  const auto burst = [&] {
    for (std::int64_t i = 0; i < n; ++i) q.post(sim::SimTime(t + (i * 7919) % 4096), [] {});
    std::int64_t pops = 0;
    while (auto e = q.try_pop()) {
      if (pops < n) q.post(sim::SimTime(e->time.ns() + 1 + (pops * 37) % 64), [] {});
      ++pops;
      benchmark::DoNotOptimize(&e);
    }
    t += 8192; // past the follow-ups that crossed into the next bucket
  };
  // Warm every buffer the burst touches before counting allocations.
  for (int w = 0; w < 4; ++w) burst();
  AllocsPerIter allocs;
  for (auto _ : state) {
    allocs.tick();
    burst();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
  allocs.report(state);
}
BENCHMARK(BM_EventQueueBurstDrain)->Arg(4096)->Arg(32768);

void BM_PiServoSample(benchmark::State& state) {
  gptp::PiServo servo;
  std::int64_t ts = 0;
  for (auto _ : state) {
    ts += 125'000'000;
    benchmark::DoNotOptimize(servo.sample(500, ts));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PiServoSample);

void BM_SerializeFollowUp(benchmark::State& state) {
  gptp::FollowUpMessage m;
  m.header.type = gptp::MessageType::kFollowUp;
  m.header.sequence_id = 7;
  m.precise_origin = gptp::Timestamp::from_ns(123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gptp::serialize(gptp::Message{m}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerializeFollowUp);

void BM_ParseFollowUp(benchmark::State& state) {
  gptp::FollowUpMessage m;
  m.header.type = gptp::MessageType::kFollowUp;
  const auto bytes = gptp::serialize(gptp::Message{m});
  for (auto _ : state) {
    benchmark::DoNotOptimize(gptp::parse(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseFollowUp);

void BM_PhcRead(benchmark::State& state) {
  sim::Simulation sim(1);
  time::PhcModel model;
  time::PhcClock phc(sim, model, "bm");
  for (auto _ : state) {
    benchmark::DoNotOptimize(phc.read());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhcRead);

void BM_SimulationPeriodicTasks(benchmark::State& state) {
  // End-to-end simulation throughput: N periodic no-op tasks at 8 Hz.
  for (auto _ : state) {
    sim::Simulation sim(1);
    for (int i = 0; i < 32; ++i) {
      sim.every(sim::SimTime(i), 125'000'000, [](sim::SimTime) {});
    }
    sim.run_until(sim::SimTime(10'000'000'000LL)); // 10 s
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 32 * 80);
}
BENCHMARK(BM_SimulationPeriodicTasks);

void BM_SwitchMulticastForward(benchmark::State& state) {
  // One ingress frame fanned out to three egress ports through the pooled
  // zero-copy path: pointer passing + refcount bumps, no payload copies.
  // After the pool and wheel warm up, a full ingress->3x-delivery cycle
  // must allocate nothing (allocs_per_iter == 0).
  sim::Simulation sim(1);
  time::PhcModel quiet;
  quiet.oscillator.initial_drift_ppm = 0.0;
  quiet.oscillator.wander_sigma_ppm = 0.0;
  quiet.timestamp_jitter_ns = 0.0;
  net::SwitchConfig scfg;
  scfg.port_count = 4;
  scfg.residence_jitter_ns = 0.0;
  scfg.phc = quiet;
  net::Switch sw(sim, scfg, "sw");
  std::vector<std::unique_ptr<net::Nic>> nics;
  std::vector<std::unique_ptr<net::Link>> links;
  net::LinkConfig lc;
  lc.a_to_b = {500, 0.0};
  lc.b_to_a = {500, 0.0};
  for (std::uint64_t i = 0; i < 4; ++i) {
    nics.push_back(std::make_unique<net::Nic>(sim, quiet, net::MacAddress::from_u64(0x10 + i),
                                              "n" + std::to_string(i)));
    links.push_back(
        std::make_unique<net::Link>(sim, nics.back()->port(), sw.port(i), lc, "l" + std::to_string(i)));
  }
  const net::MacAddress mcast = net::MacAddress::from_u64(0x333300000001ULL);
  for (std::size_t p = 1; p < 4; ++p) sw.add_fdb_entry(0, mcast, p);
  std::uint64_t delivered = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    nics[i]->join_multicast(mcast);
    nics[i]->set_rx_handler(0x1234, [&delivered](const net::EthernetFrame&, const net::RxMeta&) {
      ++delivered;
    });
  }

  auto send_one = [&] {
    net::FrameRef frame = net::FramePool::local().acquire();
    net::EthernetFrame& eth = frame.writable();
    eth.dst = mcast;
    eth.src = nics[0]->mac();
    eth.ethertype = 0x1234;
    eth.payload.resize(64);
    nics[0]->send(std::move(frame), {});
    sim.run_until(sim::SimTime(sim.now().ns() + 1'000'000)); // drain all hops
  };
  // Warm pool and wheel storage before counting (see BM_EventQueuePostAndPop).
  for (int w = 0; w < 4096; ++w) send_one();
  AllocsPerIter allocs;
  for (auto _ : state) {
    allocs.tick();
    send_one();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  allocs.report(state);
}
BENCHMARK(BM_SwitchMulticastForward);

void BM_E2eSyncExchange(benchmark::State& state) {
  // Full protocol round: GM and slave stacks exchange Sync/FollowUp and
  // Pdelay over a link for one second of simulated time per iteration
  // (8 sync intervals), exercising templates, pooled frames and the wheel
  // together. Steady-state allocations stay bounded to what the servo and
  // stats paths legitimately buffer.
  sim::Simulation sim(1);
  time::PhcModel quiet;
  quiet.oscillator.initial_drift_ppm = 5.0; // give the servo real work
  net::Nic a(sim, quiet, net::MacAddress::from_u64(0xA), "a");
  net::Nic b(sim, quiet, net::MacAddress::from_u64(0xB), "b");
  net::LinkConfig lc;
  lc.a_to_b = {500, 0.0};
  lc.b_to_a = {500, 0.0};
  net::Link link(sim, a.port(), b.port(), lc, "ab");
  gptp::PtpStack sa(sim, a, {}, "gm");
  gptp::PtpStack sb(sim, b, {}, "slave");
  gptp::InstanceConfig gm;
  gm.role = gptp::PortRole::kMaster;
  gptp::InstanceConfig sl;
  sl.role = gptp::PortRole::kSlave;
  sa.add_instance(gm);
  auto& slave = sb.add_instance(sl);
  sa.start();
  sb.start();
  for (auto _ : state) {
    sim.run_until(sim::SimTime(sim.now().ns() + 1'000'000'000LL));
  }
  benchmark::DoNotOptimize(slave.counters().offsets_computed);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(slave.counters().syncs_received));
}
BENCHMARK(BM_E2eSyncExchange);

void BM_RelayAndGate(benchmark::State& state) {
  // One sync interval per iteration of the multi-domain path the paper's
  // testbed runs every 125 ms: four GMs' Sync/FollowUp pairs relayed by a
  // time-aware bridge, four offsets into a slave's coordinator and one FTA
  // gate win. After warm-up it must allocate nothing (allocs_per_iter == 0).
  sim::Simulation sim(1);
  time::PhcModel quiet;
  quiet.oscillator.initial_drift_ppm = 0.0;
  quiet.oscillator.wander_sigma_ppm = 0.0;
  quiet.timestamp_jitter_ns = 0.0;
  net::SwitchConfig scfg;
  scfg.port_count = 2;
  scfg.residence_jitter_ns = 0.0;
  scfg.phc = quiet;
  net::Switch sw(sim, scfg, "sw");
  net::Nic gm_nic(sim, quiet, net::MacAddress::from_u64(0xA), "gm");
  net::Nic slave_nic(sim, quiet, net::MacAddress::from_u64(0xB), "slave");
  net::LinkConfig lc;
  lc.a_to_b = {600, 0.0};
  lc.b_to_a = {600, 0.0};
  net::Link l_gm(sim, gm_nic.port(), sw.port(0), lc, "gm-sw");
  net::Link l_slave(sim, slave_nic.port(), sw.port(1), lc, "sw-slave");
  const std::vector<std::uint8_t> domains{0, 1, 2, 3};
  core::FtShmem shmem(domains.size());
  core::CoordinatorConfig ccfg;
  ccfg.domains = domains;
  ccfg.initial_domain = 0;
  ccfg.skip_startup = true;
  core::MultiDomainCoordinator coordinator(sim, slave_nic.phc(), shmem, ccfg, "fta");
  gptp::PtpStack gm_stack(sim, gm_nic, {}, "gm");
  gptp::PtpStack slave_stack(sim, slave_nic, {}, "slave");
  gptp::BridgeConfig bcfg;
  for (const std::uint8_t d : domains) {
    gptp::InstanceConfig gm;
    gm.domain = d;
    gm.role = gptp::PortRole::kMaster;
    gm_stack.add_instance(gm);
    gptp::InstanceConfig sl;
    sl.domain = d;
    sl.role = gptp::PortRole::kSlave;
    slave_stack.add_instance(sl).set_offset_callback(
        [&coordinator](const gptp::MasterOffsetSample& s) { coordinator.on_offset(s); });
    gptp::BridgeDomainConfig dom;
    dom.domain = d;
    dom.slave_port = 0;
    dom.master_ports = {1};
    bcfg.domains.push_back(dom);
  }
  gptp::TimeAwareBridge bridge(sim, sw, bcfg, "br");
  gm_stack.start();
  slave_stack.start();
  bridge.start();
  constexpr std::int64_t kSyncInterval = 125'000'000;
  sim.run_until(sim::SimTime(10'000'000'000LL)); // link delays measured, pools warm
  AllocsPerIter allocs;
  for (auto _ : state) {
    allocs.tick();
    sim.run_until(sim::SimTime(sim.now().ns() + kSyncInterval));
  }
  benchmark::DoNotOptimize(coordinator.stats().aggregations);
  state.counters["relayed"] = static_cast<double>(bridge.counters().followups_relayed);
  state.counters["aggregations"] = static_cast<double>(coordinator.stats().aggregations);
  state.SetItemsProcessed(state.iterations());
  allocs.report(state);
}
BENCHMARK(BM_RelayAndGate);

void BM_AttackSyncStorm(benchmark::State& state) {
  // Sync-storm DoS load path (src/attack kSyncStorm): a compromised bridge
  // floods standalone Syncs for an unconfigured domain at 2 kHz while
  // relaying one legitimate domain GM -> slave. One simulated second per
  // iteration measures storm generation, switch fanout and the victim
  // endpoint's parse-and-drop, on top of the honest sync traffic.
  sim::Simulation sim(1);
  time::PhcModel quiet;
  quiet.oscillator.initial_drift_ppm = 0.0;
  quiet.oscillator.wander_sigma_ppm = 0.0;
  quiet.timestamp_jitter_ns = 0.0;
  net::SwitchConfig scfg;
  scfg.port_count = 4;
  scfg.residence_base_ns = 2'000;
  scfg.residence_jitter_ns = 0.0;
  scfg.phc = quiet;
  net::Switch sw(sim, scfg, "sw");
  net::Nic gm_nic(sim, quiet, net::MacAddress::from_u64(0xA), "gm");
  net::Nic slave_nic(sim, quiet, net::MacAddress::from_u64(0xB), "slave");
  net::LinkConfig lc;
  lc.a_to_b = {600, 0.0};
  lc.b_to_a = {600, 0.0};
  net::Link l_gm(sim, gm_nic.port(), sw.port(0), lc, "gm-sw");
  net::Link l_slave(sim, slave_nic.port(), sw.port(1), lc, "sw-slave");
  gptp::PtpStack gm_stack(sim, gm_nic, {}, "gm");
  gptp::PtpStack slave_stack(sim, slave_nic, {}, "slave");
  gptp::InstanceConfig gm;
  gm.role = gptp::PortRole::kMaster;
  gm_stack.add_instance(gm);
  gptp::InstanceConfig sl;
  sl.role = gptp::PortRole::kSlave;
  auto& slave = slave_stack.add_instance(sl);
  gptp::BridgeConfig bcfg;
  gptp::BridgeDomainConfig dom;
  dom.domain = 0;
  dom.slave_port = 0;
  dom.master_ports = {1};
  bcfg.domains = {dom};
  gptp::TimeAwareBridge bridge(sim, sw, bcfg, "br");
  gm_stack.start();
  slave_stack.start();
  bridge.start();
  bridge.start_sync_storm(0x7F, 500'000); // 2 kHz on an unconfigured domain
  sim.run_until(sim::SimTime(1'000'000'000LL)); // warm pools and the wheel
  for (auto _ : state) {
    sim.run_until(sim::SimTime(sim.now().ns() + 1'000'000'000LL));
    benchmark::DoNotOptimize(bridge.counters().storm_syncs_sent);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(bridge.counters().storm_syncs_sent));
  benchmark::DoNotOptimize(slave.counters().offsets_computed);
}
BENCHMARK(BM_AttackSyncStorm);

void BM_FastForwardHoldover(benchmark::State& state) {
  // Fast-forward acceptance benchmark (DESIGN.md §12): a one-hour quiescent
  // holdover run on the 8-ECD ring, event-simulated end to end at Arg(0)
  // and with the analytic fast-forward mode at Arg(1). Manual timing covers
  // only the post-calibration horizon -- the part fast-forward can skip --
  // so the two arguments' real_time ratio is the analytic speedup.
  const bool ff = state.range(0) != 0;
  constexpr std::int64_t kHourNs = 3600 * 1'000'000'000LL;
  for (auto _ : state) {
    experiments::ScenarioConfig cfg;
    cfg.seed = 7;
    cfg.num_ecds = 8;
    cfg.topology = experiments::TopologyKind::kRing;
    cfg.partitions = 0;
    experiments::Scenario sc(cfg);
    experiments::ExperimentHarness h(sc);
    h.bring_up();
    h.calibrate();
    if (ff) sc.enable_fast_forward();
    const std::int64_t horizon = sc.now_ns() + kHourNs;
    const auto t0 = std::chrono::steady_clock::now();
    sc.run_to(horizon);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    if (ff) {
      const sim::FfStats& st = sc.fast_forward()->stats();
      state.counters["skipped_s"] = static_cast<double>(st.skipped_ns) / 1e9;
      state.counters["windows"] = static_cast<double>(st.windows);
    }
    benchmark::DoNotOptimize(sc.gm_clock_disagreement_ns());
  }
}
BENCHMARK(BM_FastForwardHoldover)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
