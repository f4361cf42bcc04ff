// Ablation: IEEE 1588 end-to-end delay (PTP-unaware switch) vs IEEE
// 802.1AS peer-to-peer delay with time-aware bridges.
//
// Why the paper's substrate is gPTP: a time-aware bridge timestamps every
// Sync at ingress and egress and writes its residence time into the
// correction field, so switch queueing jitter cancels. The family's
// default E2E mechanism through a PTP-unaware switch has no such
// correction -- the queueing jitter of every hop lands in the slave's
// offsets and its servo noise.
#include <cmath>

#include "bench_common.hpp"
#include "experiments/report.hpp"
#include "gptp/bridge.hpp"
#include "gptp/stack.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "util/stats.hpp"
#include "util/str.hpp"

using namespace tsn;
using namespace tsn::sim::literals;

namespace {

struct Outcome {
  double offset_std_ns = 0;
  double disagreement_ns = 0;
  obs::MetricsSnapshot metrics;
};

time::PhcModel phc(double drift) {
  time::PhcModel m;
  m.oscillator.initial_drift_ppm = drift;
  m.timestamp_jitter_ns = 8.0;
  return m;
}

Outcome run(bool p2p_with_bridge, double residence_jitter, std::int64_t duration) {
  sim::Simulation sim(7);
  obs::Observability obs; // stack-level bench: no Scenario, so own the bundle
  net::SwitchConfig scfg;
  scfg.port_count = 3;
  scfg.residence_base_ns = 2'000;
  scfg.residence_jitter_ns = residence_jitter;
  net::Switch sw(sim, scfg, "sw");
  net::Nic gm_nic(sim, phc(2.0), net::MacAddress::from_u64(0xA), "gm");
  net::Nic slave_nic(sim, phc(-2.0), net::MacAddress::from_u64(0xB), "sl");
  net::Link lg(sim, gm_nic.port(), sw.port(0), {}, "g");
  net::Link ls(sim, slave_nic.port(), sw.port(1), {}, "s");
  gptp::PtpStack stack_g(sim, gm_nic, {}, "G");
  gptp::PtpStack stack_s(sim, slave_nic, {}, "S");

  std::unique_ptr<gptp::TimeAwareBridge> bridge;
  gptp::InstanceConfig gm_cfg, slave_cfg;
  gm_cfg.role = gptp::PortRole::kMaster;
  slave_cfg.role = gptp::PortRole::kSlave;
  if (p2p_with_bridge) {
    gptp::BridgeConfig bcfg;
    bcfg.domains = {{0, 0, {1}, false}};
    bridge = std::make_unique<gptp::TimeAwareBridge>(sim, sw, bcfg, "br");
  } else {
    gm_cfg.delay_mechanism = gptp::DelayMechanism::kE2E;
    slave_cfg.delay_mechanism = gptp::DelayMechanism::kE2E;
  }
  stack_g.add_instance(gm_cfg);
  auto& slave = stack_s.add_instance(slave_cfg);
  slave.enable_local_servo({});

  util::RunningStats offsets;
  util::RunningStats disagreement;
  stack_g.start();
  stack_s.start();
  if (bridge) bridge->start();
  sim.run_until(sim::SimTime(20_s)); // settle
  sim.every(sim.now(), 250'000'000, [&](sim::SimTime) {
    disagreement.add(
        std::abs(static_cast<double>(gm_nic.phc().read() - slave_nic.phc().read())));
  });
  slave.set_offset_callback([&](const gptp::MasterOffsetSample& s) {
    offsets.add(s.offset_ns);
    // keep disciplining manually since the callback replaced the servo sink
  });
  // Re-enable servo behaviour through the callback:
  gptp::PiServo servo;
  servo.attach_obs(obs.context(), "slave.servo");
  slave.set_offset_callback([&](const gptp::MasterOffsetSample& s) {
    offsets.add(s.offset_ns);
    const auto r = servo.sample(static_cast<std::int64_t>(s.offset_ns), s.local_rx_ts);
    if (r.state == gptp::PiServo::State::kJump) {
      slave_nic.phc().step(-static_cast<std::int64_t>(s.offset_ns));
    }
    slave_nic.phc().adj_frequency(r.freq_ppb);
  });
  sim.run_until(sim.now() + duration);

  obs.metrics.gauge("sim.events_executed")
      .set(static_cast<double>(sim.events_executed()));
  return {offsets.stddev(), disagreement.mean(), obs.metrics.snapshot()};
}

} // namespace

int main(int argc, char** argv) {
  struct Options {
    std::int64_t duration_ns;
    std::string manifest;
  };
  const Options opt = tsn::bench::parse_cli(argc, argv, [](const util::Config& cli) {
    return Options{util::parse_duration_ns(cli.get_string("horizon", "5m")),
                   tsn::bench::manifest_path(cli, "ablation_e2e_vs_p2p")};
  });
  experiments::print_banner("Ablation: 1588 E2E (dumb switch) vs 802.1AS P2P (bridge)",
                            "why the architecture builds on gPTP");

  std::vector<experiments::ComparisonRow> rows;
  std::vector<obs::MetricsSnapshot> metric_parts;
  double e2e_std = 0, p2p_std = 0;
  for (double jitter : {0.0, 100.0, 400.0}) {
    const Outcome e2e = run(false, jitter, opt.duration_ns);
    const Outcome p2p = run(true, jitter, opt.duration_ns);
    metric_parts.push_back(e2e.metrics);
    metric_parts.push_back(p2p.metrics);
    if (jitter == 400.0) {
      e2e_std = e2e.offset_std_ns;
      p2p_std = p2p.offset_std_ns;
    }
    rows.push_back({util::format("residence jitter %.0f ns", jitter),
                    util::format("P2P: std=%.0fns |err|=%.0fns", p2p.offset_std_ns,
                                 p2p.disagreement_ns),
                    util::format("E2E: std=%.0fns |err|=%.0fns", e2e.offset_std_ns,
                                 e2e.disagreement_ns),
                    ""});
  }
  experiments::print_comparison_table("Offset noise and clock error vs switch queueing jitter",
                                      rows);
  const bool ok = e2e_std > 5.0 * p2p_std;
  std::printf("\nexpected shape (P2P bridge correction cancels queueing jitter, E2E does\n"
              "not; at 400 ns jitter E2E noise is %.0fx P2P): %s\n",
              e2e_std / std::max(p2p_std, 1.0), ok ? "OK" : "DIFFERENT");

  // No ScenarioConfig here (raw gPTP stacks), so assemble the manifest by hand.
  obs::RunManifest manifest;
  manifest.tool = "ablation_e2e_vs_p2p";
  manifest.seed = 7;
  manifest.replicas = metric_parts.size();
  manifest.threads = 1;
  manifest.scenario["residence_jitter_ns"] = "0,100,400";
  manifest.scenario["duration_ns"] = std::to_string(opt.duration_ns);
  manifest.metrics = obs::merge_snapshots(metric_parts);
  manifest.extra["e2e_std_ns_j400"] = util::format("%.1f", e2e_std);
  manifest.extra["p2p_std_ns_j400"] = util::format("%.1f", p2p_std);
  tsn::bench::write_manifest(opt.manifest, manifest);
  return ok ? 0 : 1;
}
