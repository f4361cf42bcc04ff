// tsnfta_sim: run the paper's virtualized TSN testbed from the command
// line with arbitrary parameters, faults and attacks -- the "driver" a
// downstream user reaches for before writing code against the library.
//
// Examples:
//   tsnfta_sim duration_min=10
//   tsnfta_sim duration_min=60 attack_at_min=5 attack_gm=2 attack2_at_min=9 attack2_gm=0
//   tsnfta_sim duration_min=30 inject_faults=true gm_kill_period_min=5
//   tsnfta_sim duration_min=5 aggregation=median sync_interval_ns=62500000
//   tsnfta_sim duration_min=5 pcap=run.pcap
//   tsnfta_sim duration_min=10 seeds=8 threads=4 csv=sweep.csv
//   tsnfta_sim duration_min=5 num_ecds=64 topology=ring num_domains=8 partitions=8
//   tsnfta_sim horizon=1w ff=1 num_ecds=8 topology=ring
//
// num_ecds=/topology=(mesh|ring|tree)/num_domains= scale the testbed
// beyond the paper's 4-ECD mesh; partitions=N runs the world on the
// conservative-parallel runtime with N worker shards (results identical
// for every N >= 1; pcap/attack knobs need the serial path).
//
// horizon=DURATION ("600s", "90m", "36h", "1w") sets the measured phase
// like duration_min= but with a unit suffix (horizon wins when both are
// given). ff=1 arms the fast-forward analytic mode (DESIGN.md §12):
// quiescent stretches of the measured phase advance analytically, so
// week-scale holdover runs finish in minutes. Serial-only (ignored with
// partitions>0); with inject_faults=true every kill/reboot edge is a
// barrier the windows never cross, while attack_at_min= steps keep the
// event queue busy and the windows shut -- leave ff off for attack runs.
//
// seeds=N runs N replicas (seed, seed+1, ...) through the SweepRunner on
// threads= workers (0 = hardware concurrency). The merged series/stats
// are identical whatever threads= is; seeds=1 (default) reproduces the
// classic single run. pcap capture applies to the first replica only.
#include <algorithm>
#include <cstdio>

#include "experiments/harness.hpp"
#include "experiments/report.hpp"
#include "faults/attacker.hpp"
#include "faults/injector.hpp"
#include "net/pcap.hpp"
#include "obs/manifest.hpp"
#include "sim/fast_forward.hpp"
#include "sweep/sweep_runner.hpp"
#include "util/config.hpp"
#include "util/log.hpp"
#include "util/str.hpp"

using namespace tsn;
using namespace tsn::sim::literals;

namespace {

core::AggregationMethod parse_method(const std::string& name) {
  if (name == "median") return core::AggregationMethod::kMedian;
  if (name == "mean") return core::AggregationMethod::kMean;
  return core::AggregationMethod::kFta;
}

struct Replica {
  util::TimeSeries series;
  experiments::ExperimentHarness::Calibration cal;
  std::int64_t sync_done_ns = 0;
  std::uint64_t injector_kills = 0;
  std::uint64_t injector_gm_kills = 0;
  std::size_t takeovers = 0;
  std::size_t attacks_attempted = 0;
  std::size_t attacks_succeeded = 0;
  std::uint64_t pcap_frames = 0;
  sim::FfStats ff;
  double holds = 0;
  obs::MetricsSnapshot metrics;
};

/// An attack_at_min= / attack2_at_min= step, read before any world runs.
struct AttackOption {
  std::string key;
  std::int64_t after_ns; ///< after calibration
  std::size_t gm;
};

int run(const util::Config& cli) {
  util::set_log_level(util::parse_log_level(cli.get_string("log", "info")));

  experiments::ScenarioConfig base;
  base.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  base.num_ecds = static_cast<std::size_t>(
      std::max<std::int64_t>(2, cli.get_int("num_ecds", (std::int64_t)base.num_ecds)));
  base.topology = experiments::parse_topology(cli.get_string("topology", "mesh"));
  base.num_domains = static_cast<std::size_t>(cli.get_int("num_domains", 0));
  base.partitions = static_cast<std::size_t>(cli.get_int("partitions", 0));
  base.sync_interval_ns = cli.get_int("sync_interval_ns", base.sync_interval_ns);
  base.aggregation = parse_method(cli.get_string("aggregation", "fta"));
  base.validity_threshold_ns = cli.get_double("validity_threshold_ns", base.validity_threshold_ns);
  base.synctime_feed_forward = cli.get_bool("feed_forward", false);
  base.gm_mutual_sync = cli.get_bool("gm_mutual_sync", true);
  if (cli.get_bool("diverse_kernels", false)) {
    base.gm_kernels = {"4.19.1", "5.4.0", "5.10.0", "6.1.0"};
  }

  std::int64_t duration = cli.get_int("duration_min", 10) * 60'000'000'000LL;
  if (cli.has("horizon")) duration = util::parse_duration_ns(cli.get_string("horizon"));
  const bool use_ff = cli.get_bool("ff", false);
  if (use_ff && base.partitions > 0) {
    std::fprintf(stderr, "warning: ff=1 ignored with partitions>0 (fast-forward is serial-only)\n");
  }
  const std::size_t seeds =
      static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("seeds", 1)));
  std::vector<AttackOption> attacks;
  for (const char* prefix : {"attack", "attack2"}) {
    const std::string at_key = std::string(prefix) + "_at_min";
    if (!cli.has(at_key)) continue;
    attacks.push_back({at_key, cli.get_int(at_key, 0) * 60'000'000'000LL,
                       static_cast<std::size_t>(cli.get_int(std::string(prefix) + "_gm", 0))});
  }
  const bool inject_faults = cli.get_bool("inject_faults", false);
  faults::InjectorConfig icfg;
  icfg.gm_kill_period_ns = cli.get_int("gm_kill_period_min", 30) * 60'000'000'000LL;
  icfg.standby_kills_per_hour = cli.get_double("standby_kills_per_hour", 0.65);
  const std::int64_t bucket_ns = cli.get_int("bucket_s", 120) * 1'000'000'000LL;
  const std::size_t threads =
      static_cast<std::size_t>(std::max<std::int64_t>(0, cli.get_int("threads", 0)));

  const auto run_replica = [&](const experiments::ScenarioConfig& cfg,
                               std::size_t index) -> Replica {
    experiments::Scenario scenario(cfg);
    experiments::ExperimentHarness harness(scenario);

    std::unique_ptr<net::PcapTracer> pcap;
    if (cli.has("pcap") && index == 0 && !scenario.partitioned()) {
      pcap = std::make_unique<net::PcapTracer>(scenario.sim(), cli.get_string("pcap"));
      pcap->attach(scenario.measurement_vm().nic().port());
    }

    harness.bring_up();
    const auto cal = harness.calibrate();
    const std::int64_t sync_done = scenario.now_ns();

    faults::Attacker attacker(scenario.control_sim(), faults::KernelVulnDb::with_defaults());
    const std::int64_t t0 = scenario.now_ns();
    for (const AttackOption& a : attacks) {
      if (scenario.partitioned()) {
        // The attacker's schedule mutates a GM VM directly; that write is
        // only safe on the region owning the VM, so attack runs stay on
        // the serial path.
        if (index == 0) {
          std::fprintf(stderr, "warning: %s ignored with partitions>0\n", a.key.c_str());
        }
        continue;
      }
      attacker.add_step({t0 + a.after_ns, &scenario.gm_vm(a.gm % scenario.num_ecds())});
    }
    attacker.start();

    std::unique_ptr<faults::FaultInjector> injector;
    if (inject_faults) {
      injector = std::make_unique<faults::FaultInjector>(scenario.control_sim(),
                                                         scenario.ecd_ptrs(), icfg);
      if (scenario.partitioned()) {
        std::vector<std::size_t> regions(scenario.num_ecds());
        for (std::size_t r = 0; r < regions.size(); ++r) regions[r] = r;
        injector->set_partitioned(scenario.runtime(), std::move(regions), /*home_region=*/0);
      }
      injector->spare(&scenario.measurement_vm());
      injector->start();
    }

    if (use_ff && !scenario.partitioned()) {
      scenario.enable_fast_forward();
      if (injector) {
        sim::FfController* ff = scenario.fast_forward();
        ff->add_participant(injector.get());
        ff->add_barrier(
            [inj = injector.get()](std::int64_t t) { return inj->next_pending_ns(t); });
      }
    }

    harness.run_measured(duration);

    Replica out;
    out.series = scenario.probe().series();
    out.cal = cal;
    out.sync_done_ns = sync_done;
    if (injector) {
      out.injector_kills = injector->stats().total_kills;
      out.injector_gm_kills = injector->stats().gm_kills;
      out.takeovers = harness.events().count(experiments::EventKind::kTakeover);
    }
    out.attacks_attempted = attacker.results().size();
    out.attacks_succeeded = attacker.successful_exploits();
    if (pcap) {
      pcap->flush();
      out.pcap_frames = pcap->frames_written();
    }
    if (scenario.fast_forward()) out.ff = scenario.fast_forward()->stats();
    out.holds = experiments::bound_holding_fraction(out.series, cal.bound.pi_ns, cal.gamma_ns);
    out.metrics = scenario.metrics_snapshot();
    return out;
  };

  sweep::SweepRunner runner({.threads = threads});
  std::printf("booting the %zu-ECD %s testbed (seed %llu%s)...\n", base.num_ecds,
              experiments::topology_name(base.topology),
              static_cast<unsigned long long>(base.seed),
              seeds > 1 ? util::format(", %zu replicas on %zu threads", seeds,
                                       runner.threads())
                              .c_str()
                        : "");
  if (cli.has("pcap")) {
    if (base.partitions > 0) {
      std::printf("pcap= ignored with partitions>0 (the tracer hooks the serial event loop)\n");
    } else {
      std::printf("capturing the measurement VM's traffic to %s\n",
                  cli.get_string("pcap").c_str());
    }
  }
  std::printf("running the measured phase for %lld min...\n",
              static_cast<long long>(duration / 60'000'000'000LL));

  const auto results = runner.run(sweep::seed_sweep(base, seeds), run_replica);

  const auto& first = results.front();
  std::printf("initial synchronization complete at t=%s; Pi=%.2f us, gamma=%.2f us\n",
              util::hms(first.sync_done_ns).c_str(), first.cal.bound.pi_ns / 1000.0,
              first.cal.gamma_ns / 1000.0);

  std::vector<util::TimeSeries> series;
  std::vector<double> holds_parts;
  std::vector<std::size_t> counts;
  std::vector<obs::MetricsSnapshot> metric_parts;
  Replica sums;
  for (const auto& r : results) {
    series.push_back(r.series);
    holds_parts.push_back(r.holds);
    counts.push_back(r.series.points().size());
    metric_parts.push_back(r.metrics);
    sums.injector_kills += r.injector_kills;
    sums.injector_gm_kills += r.injector_gm_kills;
    sums.takeovers += r.takeovers;
    sums.attacks_attempted += r.attacks_attempted;
    sums.attacks_succeeded += r.attacks_succeeded;
    sums.pcap_frames += r.pcap_frames;
  }
  const auto merged = sweep::merge_series(series);

  experiments::print_precision_series(merged, first.cal.bound.pi_ns, first.cal.gamma_ns,
                                      bucket_ns);
  if (inject_faults) {
    std::printf("\nfault injection: %llu kills (%llu GM), %zu takeovers\n",
                static_cast<unsigned long long>(sums.injector_kills),
                static_cast<unsigned long long>(sums.injector_gm_kills), sums.takeovers);
  }
  if (sums.attacks_attempted > 0) {
    std::printf("attacks: %zu attempted, %zu succeeded\n", sums.attacks_attempted,
                sums.attacks_succeeded);
  }
  if (use_ff && base.partitions == 0) {
    const sim::FfStats& ff = first.ff;
    std::printf("fast-forward: %llu windows skipped %s of %s (%.1f%%)\n",
                static_cast<unsigned long long>(ff.windows),
                util::human_ns(ff.skipped_ns).c_str(), util::human_ns(duration).c_str(),
                100.0 * static_cast<double>(ff.skipped_ns) / static_cast<double>(duration));
  }
  if (cli.has("csv")) {
    experiments::dump_series_csv(merged, cli.get_string("csv"));
    std::printf("series written to %s\n", cli.get_string("csv").c_str());
  }
  if (cli.has("pcap")) {
    std::printf("pcap: %llu frames captured\n",
                static_cast<unsigned long long>(sums.pcap_frames));
  }

  const double held = [&] {
    double weighted = 0;
    std::size_t total = 0;
    for (std::size_t i = 0; i < holds_parts.size(); ++i) {
      weighted += holds_parts[i] * static_cast<double>(counts[i]);
      total += counts[i];
    }
    return total == 0 ? 1.0 : weighted / static_cast<double>(total);
  }();
  std::printf("\nprecision bound held for %.2f%% of samples\n", 100.0 * held);

  const std::string manifest_path = cli.get_string("manifest", "tsnfta_sim_manifest.json");
  if (manifest_path != "none") {
    obs::RunManifest manifest;
    manifest.tool = "tsnfta_sim";
    manifest.seed = base.seed;
    manifest.replicas = results.size();
    manifest.threads = runner.threads();
    manifest.scenario = experiments::scenario_kv(base);
    manifest.metrics = obs::merge_snapshots(metric_parts);
    manifest.extra["bound_held_fraction"] = util::format("%.6f", held);
    manifest.extra["takeovers"] = std::to_string(sums.takeovers);
    manifest.extra["attacks_attempted"] = std::to_string(sums.attacks_attempted);
    obs::write_manifest(manifest_path, manifest);
    std::printf("run manifest -> %s (git %s)\n", manifest_path.c_str(), obs::build_git_sha());
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  // Bad input -- malformed key=value, a number that does not parse whole,
  // a combination the Scenario rejects -- exits 2 with the usage line
  // instead of aborting. Every option is read before any world runs.
  try {
    return run(util::Config::from_args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "usage: tsnfta_sim [key=value ...]   (%s)\n", e.what());
    return 2;
  }
}
