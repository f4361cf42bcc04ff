// Ablation: fail-silent (f+1 = 2 VMs, the paper's hardware-constrained
// setup) vs fail-consistent (2f+1 = 3 VMs, the paper's full design).
//
// A consistently faulty clock synchronization VM publishes a plausible but
// wrong CLOCK_SYNCTIME. With two VMs the monitor cannot tell (no quorum):
// co-located applications silently consume the wrong time. With three VMs
// the majority vote evicts the faulty publisher within a couple of monitor
// periods.
#include "bench_common.hpp"
#include "experiments/report.hpp"
#include "hv/ecd.hpp"
#include "util/str.hpp"

using namespace tsn;
using namespace tsn::sim::literals;

namespace {

time::PhcModel nic_phc() {
  time::PhcModel m;
  // In deployment the VMs' NIC clocks are gPTP-synchronized to within the
  // bound Pi; this bench runs the node standalone, so near-ideal
  // oscillators stand in for that synchronization.
  m.oscillator.max_drift_ppm = 0.05;
  m.oscillator.wander_sigma_ppm = 0.0005;
  return m;
}

hv::ClockSyncVmConfig vm_cfg(const std::string& name, std::uint64_t mac) {
  hv::ClockSyncVmConfig cfg;
  cfg.name = name;
  cfg.mac = net::MacAddress::from_u64(mac);
  cfg.phc = nic_phc();
  cfg.domains = {1, 2, 3, 4};
  return cfg;
}

struct Outcome {
  bool detected = false;
  double detection_latency_ms = -1;
  double residual_error_ns = 0; ///< CLOCK_SYNCTIME error after the fault
  obs::MetricsSnapshot metrics;
};

Outcome run(std::size_t vm_count, std::uint64_t seed) {
  sim::Simulation sim(seed);
  obs::Observability obs; // Ecd-level bench: no Scenario, so own the bundle
  hv::Ecd ecd(sim, {"ecd", nic_phc(), {}}, obs.context());
  for (std::size_t i = 0; i < vm_count; ++i) {
    ecd.add_clock_sync_vm(vm_cfg(util::format("vm%zu", i), 0x50 + i));
  }
  ecd.start();
  sim.run_until(sim::SimTime(5_s));

  Outcome out;
  std::int64_t fault_time = sim.now().ns();
  ecd.monitor().on_vote_exclusion = [&](std::size_t idx) {
    if (idx == 0 && !out.detected) {
      out.detected = true;
      out.detection_latency_ms =
          static_cast<double>(sim.now().ns() - fault_time) / 1e6;
    }
  };
  ecd.vm(0).updater()->set_param_corruption(50'000); // +50 us, consistently
  sim.run_until(sim::SimTime(15_s));

  // What do co-located application VMs read now, vs. a healthy reference?
  const auto st = ecd.read_synctime();
  const auto ref = ecd.vm(vm_count - 1).nic().phc().read();
  out.residual_error_ns = st ? static_cast<double>(*st - ref) : -1;
  obs.metrics.gauge("sim.events_executed")
      .set(static_cast<double>(sim.events_executed()));
  out.metrics = obs.metrics.snapshot();
  return out;
}

} // namespace

int main(int argc, char** argv) {
  struct Options {
    std::uint64_t seed;
    std::string manifest;
  };
  const Options opt = bench::parse_cli(argc, argv, [](const util::Config& cli) {
    return Options{static_cast<std::uint64_t>(cli.get_int("seed", 3)),
                   bench::manifest_path(cli, "ablation_fail_consistent")};
  });
  experiments::print_banner("Ablation: fail-silent (2 VMs) vs fail-consistent (3 VMs)",
                            "sec. II-A fault hypotheses");

  const Outcome two = run(2, opt.seed);
  const Outcome three = run(3, opt.seed);

  experiments::print_comparison_table(
      "A VM publishes consistently wrong CLOCK_SYNCTIME (+50 us)",
      {
          {"detection (2 VMs, fail-silent)", "impossible (no quorum)",
           two.detected ? "DETECTED?!" : "not detected", "paper's 2-NIC constraint"},
          {"app-visible clock error (2 VMs)", "~50000 ns",
           util::format("%.0f ns", two.residual_error_ns), "apps consume wrong time"},
          {"detection (3 VMs, 2f+1 vote)", "yes",
           three.detected ? util::format("yes, after %.0f ms", three.detection_latency_ms)
                          : "NOT DETECTED",
           "monitor majority vote"},
          {"app-visible clock error (3 VMs)", "~0 ns",
           util::format("%.0f ns", three.residual_error_ns), "takeover to a healthy VM"},
      });

  const bool ok = !two.detected && std::abs(two.residual_error_ns - 50'000) < 10'000 &&
                  three.detected && std::abs(three.residual_error_ns) < 10'000;
  std::printf("\nexpected shape (2 VMs blind, 3 VMs detect and recover): %s\n",
              ok ? "OK" : "DIFFERENT");

  // No ScenarioConfig here (Ecd-level bench), so assemble the manifest by hand.
  obs::RunManifest manifest;
  manifest.tool = "ablation_fail_consistent";
  manifest.seed = opt.seed;
  manifest.replicas = 2;
  manifest.threads = 1;
  manifest.scenario["vm_counts"] = "2,3";
  manifest.scenario["param_corruption_ns"] = "50000";
  manifest.metrics = obs::merge_snapshots({two.metrics, three.metrics});
  manifest.extra["detected_2vm"] = two.detected ? "1" : "0";
  manifest.extra["detected_3vm"] = three.detected ? "1" : "0";
  manifest.extra["residual_ns_2vm"] = util::format("%.1f", two.residual_error_ns);
  manifest.extra["residual_ns_3vm"] = util::format("%.1f", three.residual_error_ns);
  bench::write_manifest(opt.manifest, manifest);
  return ok ? 0 : 1;
}
