#include "check/world.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>

#include "net/pcap.hpp"

namespace tsn::check {

WorldResult run_world(const WorldSpec& spec) {
  experiments::Scenario scenario(spec.scenario);
  experiments::ExperimentHarness harness(scenario);
  for (std::size_t x = 0; x < scenario.num_ecds(); ++x) {
    for (std::size_t i = 0; i < scenario.ecd(x).vm_count(); ++i) {
      scenario.vm(x, i).set_fault_model(spec.fault_model);
    }
  }
  std::unique_ptr<net::PcapTracer> pcap;
  if (!spec.pcap.empty()) {
    // The port runs on its ECD's region only, so that region's clock
    // stamps the frames.
    pcap = std::make_unique<net::PcapTracer>(scenario.ecd(spec.scenario.measurement_ecd).sim(),
                                             spec.pcap);
    pcap->attach(scenario.measurement_vm().nic().port());
  }

  WorldResult out;
  harness.bring_up(240'000'000'000LL);
  out.cal = harness.calibrate(spec.rounds);
  out.t0_ns = scenario.now_ns();

  std::unique_ptr<InvariantSuite> suite;
  SuiteParams sp;
  if (spec.oracles) {
    suite = std::make_unique<InvariantSuite>(scenario);
    sp.bound_ns = out.cal.bound.pi_ns;
    suite->add_default_invariants(sp);
  }

  // The driver must outlive the run loop: scheduled closures index it.
  attack::AttackDriver driver;
  driver.on_exploit = [&](const attack::ArmedAttack& a, bool rooted) {
    harness.region_log(scenario.partitioned() ? a.spec.ecd : 0)
        .record(a.start_abs_ns, experiments::EventKind::kAttack, a.victim_vm,
                rooted ? "root obtained" : "failed");
  };
  driver.arm(scenario, spec.attacks);
  AttackExclusionInvariant* attack_oracle = nullptr;
  if (suite && !spec.attacks.empty()) {
    for (const attack::ArmedAttack& a : driver.armed()) {
      if (!attack::compromises_victim_clock(a.spec.kind)) continue;
      // The victim GM's own timebase (or its measurement chain) is
      // compromised: per-node oracles judge only the honest nodes. The
      // window extends past the attack end because poisoned measurement
      // state decays, not snaps, back (the NRR ring holds tampered samples
      // for its whole span and delay smoothing decays geometrically);
      // after that the exemption re-arms reboot-style deadlines, so the
      // victim must still re-prove convergence.
      const std::int64_t until = a.end_abs_ns >= INT64_MAX - sp.reconverge_deadline_ns
                                     ? INT64_MAX
                                     : a.end_abs_ns + sp.reconverge_deadline_ns;
      suite->precision_bound()->exempt_source(a.victim_vm, a.start_abs_ns, until);
      suite->synctime_monotonicity()->exempt_ecd(a.spec.ecd, a.start_abs_ns, until);
    }
    std::map<std::string, std::size_t> vm_ecd;
    for (std::size_t e = 0; e < scenario.num_ecds(); ++e) {
      for (std::size_t v = 0; v < scenario.ecd(e).vm_count(); ++v) {
        vm_ecd[scenario.vm(e, v).name()] = e;
      }
    }
    auto oracle = std::make_unique<AttackExclusionInvariant>(
        driver.armed(),
        [vm_ecd = std::move(vm_ecd)](const std::string& vm) -> std::optional<std::size_t> {
          const auto it = vm_ecd.find(vm);
          if (it == vm_ecd.end()) return std::nullopt;
          return it->second;
        },
        /*eviction_deadline_ns=*/5'000'000'000LL);
    attack_oracle = oracle.get();
    suite->add(std::move(oracle));
  }

  std::unique_ptr<faults::FaultInjector> injector;
  if (spec.injector) {
    injector = std::make_unique<faults::FaultInjector>(scenario.control_sim(),
                                                       scenario.ecd_ptrs(), *spec.injector);
    if (scenario.partitioned()) {
      std::vector<std::size_t> regions(scenario.num_ecds());
      std::iota(regions.begin(), regions.end(), std::size_t{0});
      injector->set_partitioned(scenario.runtime(), std::move(regions), /*home_region=*/0);
    }
    // Kill and reboot marks (Fig. 5) go to the log of the injector's home
    // region, on whose shard its listeners run.
    injector->add_listener([&log = harness.region_log(0)](const faults::InjectionEvent& ev) {
      log.record(ev.at_ns,
                 ev.is_reboot ? experiments::EventKind::kVmReboot
                              : experiments::EventKind::kVmFailure,
                 ev.vm, ev.was_gm ? "gm" : "standby");
    });
    // The probe's receiver must stay alive.
    if (spec.probe) injector->spare(&scenario.measurement_vm());
  }
  if (suite) {
    if (injector) suite->observe(*injector);
    suite->arm();
  }
  if (injector) {
    if (spec.replay.empty()) {
      injector->start();
    } else {
      injector->run(spec.replay);
    }
  }

  if (spec.ff) {
    scenario.enable_fast_forward();
    sim::FfController* ff = scenario.fast_forward();
    // The suite parks and phase-realigns its poll across windows; the
    // injector and the attack driver are accounting-only participants
    // whose scheduled edges double as barriers (windows never cross a
    // kill, reboot or attack edge).
    if (suite) ff->add_participant(suite.get());
    if (injector) {
      ff->add_participant(injector.get());
      ff->add_barrier([inj = injector.get()](std::int64_t t) { return inj->next_pending_ns(t); });
    }
    ff->add_participant(&driver);
    ff->add_barrier([&driver](std::int64_t t) { return driver.next_edge_ns(t); });
    ff->set_model_quiescent([&scenario, s = suite.get(), &driver] {
      const std::int64_t now = scenario.sim().now().ns();
      return scenario.model_quiescent() && (!s || s->ff_quiescent(now)) &&
             !driver.any_active(now);
    });
  }

  if (spec.horizon_ns > 0) {
    if (spec.probe) scenario.probe().start();
    // Oracles without ff run in 1 s chunks, so partitioned runs get their
    // sampling ticks at the stage boundaries (poll_now is a no-op when
    // serial, and a serial run chunked at arbitrary times executes
    // identically); otherwise one shot, as chunks would cap ff windows.
    const std::int64_t end = scenario.now_ns() + spec.horizon_ns;
    const std::int64_t chunk = suite && !spec.ff ? 1'000'000'000 : spec.horizon_ns;
    while (scenario.now_ns() < end) {
      scenario.run_to(std::min(end, scenario.now_ns() + chunk));
      if (suite) suite->poll_now();
    }
    if (spec.probe) scenario.probe().stop();
  }
  if (suite) suite->finalize();

  out.events_executed = scenario.events_executed();
  if (scenario.fast_forward()) out.ff_stats = scenario.fast_forward()->stats();
  if (injector) {
    out.injector_stats = injector->stats();
    out.events = injector->events();
  }
  out.exploits_attempted = driver.exploits_attempted();
  out.exploits_rooted = driver.exploits_rooted();
  if (pcap) {
    pcap->flush();
    out.pcap_frames = pcap->frames_written();
  }
  if (suite) {
    out.summary = suite->summary();
    out.violations = suite->violations();
    if (attack_oracle) out.attack_verdicts = attack_oracle->verdicts();
  }
  if (spec.probe) {
    out.series = scenario.probe().series();
    out.log = harness.events();
    out.tx_timeouts = harness.total_tx_timestamp_timeouts();
    out.deadline_misses = harness.total_deadline_misses();
    out.metrics = scenario.metrics_snapshot();
    out.gm_disagreement_ns = scenario.gm_clock_disagreement_ns();
  }
  return out;
}

} // namespace tsn::check
