// tsnfta_sim: the one driver of the paper's virtualized TSN testbed. A
// custom world from the command line and every experiment of DESIGN.md §4
// that builds a Scenario fill one check::WorldSpec per replica; the
// phases themselves are check::run_world's.
//
// The paper's evaluation, one row of kExperiments each; the exit code is
// the row's shape check:
//   tsnfta_sim exp=t1   sec. III-A3 path delays and bounds of both experiments
//   tsnfta_sim exp=e1   Fig. 3a: 1 h attack, identical kernels -> bound violated
//   tsnfta_sim exp=e2   Fig. 3b: 1 h attack, diverse kernels -> bound holds
//   tsnfta_sim exp=e3   Fig. 4a, Fig. 4b (E4), Fig. 5 (E5) and the sec. III-C
//                       scalars (T2), all from one 24 h fault-injection run
//   tsnfta_sim exp=b1   the Kyriakakis et al. client-only baseline
//   tsnfta_sim exp=a1   ablation: FTA vs median vs mean under a Byzantine GM
//   tsnfta_sim exp=a2   ablation: feedback vs feed-forward CLOCK_SYNCTIME
//   tsnfta_sim exp=a3   ablation: sync interval sweep
// A row's defaults are ordinary keys (exp=e3 horizon=1h shortens E3); the
// keys its variants set belong to the row.
//
// Custom runs:
//   tsnfta_sim horizon=10m
//   tsnfta_sim horizon=1h attack_at=20m attack_gm=3 attack2_at=30m attack2_gm=0
//   tsnfta_sim horizon=30m inject_faults=true gm_kill_period_min=5
//   tsnfta_sim horizon=5m aggregation=median sync_interval_ns=62500000
//   tsnfta_sim horizon=5m pcap=run.pcap
//   tsnfta_sim horizon=10m seeds=8 threads=4 csv=sweep.csv
//   tsnfta_sim horizon=5m num_ecds=64 topology=ring num_domains=8 partitions=8
//   tsnfta_sim horizon=1w ff=1 num_ecds=8 topology=ring
//
// Keys:
//   world      seed num_ecds topology=mesh|ring|tree num_domains partitions
//              sync_interval_ns aggregation=fta|median|mean validity_threshold_ns
//              feed_forward gm_mutual_sync gm_kernels=<version,...> (GM VMs in ECD order)
//   phases     horizon=DURATION ("600s", "90m", "24h", "1w"; default 10m, 0 skips the
//              measured phase) rounds (calibration rounds)
//   exploits   attack_at=DURATION attack_gm attack2_at attack2_gm (times count from
//              the end of calibration)
//   faults     inject_faults gm_kill_period_min standby_kills_per_hour gm_downtime_s
//              standby_downtime_s; p_tx_timeout p_late_launch (transient ptp4l faults)
//   execution  ff seeds threads
//   output     log bucket_s csv events_csv pcap manifest (manifest=none writes none)
//
// partitions=N runs the conservative-parallel runtime with N worker
// shards (results identical for every N >= 1); ff=1 runs on the serial
// event loop and is rejected with it. ff=1 (DESIGN.md §12) advances
// quiescent stretches of the measured phase analytically; fault-injector
// and exploit edges are barriers the windows never cross, and a rooted GM
// keeps them shut for the rest of the run. seeds=N runs N replicas (seed,
// seed+1, ...) of every variant on threads= workers (0 = hardware
// concurrency); the merged output is identical for any threads=. pcap
// captures the first replica only.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <type_traits>

#include "check/world.hpp"
#include "experiments/report.hpp"
#include "obs/manifest.hpp"
#include "sweep/sweep_runner.hpp"
#include "util/config.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/str.hpp"

using namespace tsn;

namespace {

constexpr std::int64_t kSecond = 1'000'000'000LL;
constexpr std::int64_t kMinute = 60 * kSecond;

// ---- options ---------------------------------------------------------------

/// Every option besides the world's, read before any world runs.
struct Options {
  check::WorldSpec world; ///< every replica's phases; run() fills in its scenario
  std::size_t seeds = 1;
  std::size_t threads = 0;
  std::int64_t bucket_ns = 0;
  std::string csv, events_csv, manifest;
};

core::AggregationMethod parse_method(const std::string& name) {
  if (name == "fta") return core::AggregationMethod::kFta;
  if (name == "median") return core::AggregationMethod::kMedian;
  if (name == "mean") return core::AggregationMethod::kMean;
  throw std::invalid_argument("unknown aggregation '" + name + "' (expected fta, median or mean)");
}

experiments::ScenarioConfig read_world(const util::Config& cli) {
  experiments::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  cfg.num_ecds = static_cast<std::size_t>(
      cli.get_int_at_least("num_ecds", static_cast<std::int64_t>(cfg.num_ecds), 2));
  cfg.topology = experiments::parse_topology(cli.get_string("topology", "mesh"));
  cfg.num_domains = static_cast<std::size_t>(cli.get_int_at_least("num_domains", 0, 0));
  cfg.partitions = static_cast<std::size_t>(cli.get_int_at_least("partitions", 0, 0));
  cfg.sync_interval_ns = cli.get_int_at_least("sync_interval_ns", cfg.sync_interval_ns, 1);
  cfg.aggregation = parse_method(cli.get_string("aggregation", "fta"));
  cfg.validity_threshold_ns = cli.get_double("validity_threshold_ns", cfg.validity_threshold_ns);
  cfg.synctime_feed_forward = cli.get_bool("feed_forward", false);
  cfg.gm_mutual_sync = cli.get_bool("gm_mutual_sync", true);
  if (cli.has("gm_kernels")) {
    cfg.gm_kernels = util::split(cli.get_string("gm_kernels"), ',');
    if (std::count(cfg.gm_kernels.begin(), cfg.gm_kernels.end(), "") > 0) {
      throw std::invalid_argument("gm_kernels= needs comma-separated kernel versions");
    }
  }
  return cfg;
}

Options read_options(const util::Config& cli, const experiments::ScenarioConfig& world,
                     const std::string& default_manifest) {
  Options o;
  check::WorldSpec& w = o.world;
  w.horizon_ns = util::parse_duration_ns(cli.get_string("horizon", "10m"));
  w.rounds = static_cast<int>(cli.get_int_at_least("rounds", 40, 1));
  w.probe = true;
  for (const std::string prefix : {"attack", "attack2"}) {
    if (!cli.has(prefix + "_at")) continue;
    const std::int64_t at_ns = util::parse_duration_ns(cli.get_string(prefix + "_at"));
    const auto gm = static_cast<std::size_t>(cli.get_int_at_least(prefix + "_gm", 0, 0));
    if (gm >= world.domain_count()) {
      throw std::invalid_argument(util::format("%s_gm=%zu names no GM: the world has %zu domains",
                                               prefix.c_str(), gm, world.domain_count()));
    }
    // The paper's exploit: root on a vulnerable kernel, then -24 us pOTs.
    w.attacks.push_back({.kind = attack::AttackKind::kKernelExploit,
                         .ecd = gm,
                         .start_ns = at_ns,
                         .magnitude = -24'000.0});
  }
  if (cli.get_bool("inject_faults", false)) {
    faults::InjectorConfig& icfg = w.injector.emplace();
    icfg.gm_kill_period_ns = cli.get_int_at_least("gm_kill_period_min", 30, 1) * kMinute;
    icfg.gm_downtime_ns =
        cli.get_int_at_least("gm_downtime_s", icfg.gm_downtime_ns / kSecond, 0) * kSecond;
    icfg.standby_kills_per_hour =
        cli.get_double("standby_kills_per_hour", icfg.standby_kills_per_hour);
    icfg.standby_downtime_ns =
        cli.get_int_at_least("standby_downtime_s", icfg.standby_downtime_ns / kSecond, 0) * kSecond;
  }
  w.fault_model.p_tx_timestamp_timeout = cli.get_double("p_tx_timeout", 0.0);
  w.fault_model.p_late_launch = cli.get_double("p_late_launch", 0.0);
  w.ff = cli.get_bool("ff", false);
  o.seeds = static_cast<std::size_t>(cli.get_int_at_least("seeds", 1, 1));
  o.threads = static_cast<std::size_t>(cli.get_int_at_least("threads", 0, 0));
  o.bucket_ns = cli.get_int_at_least("bucket_s", 120, 1) * kSecond;
  o.csv = cli.get_string("csv");
  o.events_csv = cli.get_string("events_csv");
  w.pcap = cli.get_string("pcap");
  o.manifest = cli.get_string("manifest", default_manifest);
  if (world.partitions > 0 && w.ff) {
    throw std::invalid_argument("ff=1 runs on the serial event loop; drop it or partitions=");
  }
  return o;
}

using check::WorldResult;

/// eq. (3.3) against the replica's own bound.
double holds(const WorldResult& r) {
  return experiments::bound_holding_fraction(r.series, r.cal.bound.pi_ns, r.cal.gamma_ns);
}
std::uint64_t kill_count(const WorldResult& r) { return r.injector_stats.total_kills; }
std::uint64_t gm_kill_count(const WorldResult& r) { return r.injector_stats.gm_kills; }
std::size_t takeover_count(const WorldResult& r) {
  return r.log.count(experiments::EventKind::kTakeover);
}

// ---- reports ---------------------------------------------------------------

/// One variant's replicas (seed, seed+1, ...), merged in submission order.
struct Group {
  const char* label = nullptr;
  experiments::ScenarioConfig cfg; ///< the first replica's world
  std::vector<WorldResult> replicas;
  util::TimeSeries series;
  double holds = 1.0; ///< sample-weighted over the replicas

  const WorldResult& first() const { return replicas.front(); }
  /// Sum of a field or a reading over the replicas.
  template <typename F>
  auto sum(F field) const {
    std::remove_cvref_t<std::invoke_result_t<F, const WorldResult&>> total{};
    for (const WorldResult& r : replicas) total += std::invoke(field, r);
    return total;
  }
  experiments::EventLog events() const {
    std::vector<experiments::EventLog> logs;
    for (const WorldResult& r : replicas) logs.push_back(r.log);
    return sweep::merge_event_logs(logs);
  }
};

/// A finished invocation, handed to its row's report.
struct Run {
  const Options& opt;
  std::vector<Group> groups;
  std::size_t threads = 1;
  obs::RunManifest manifest; ///< the report adds its `extra` keys
};

int report_custom(Run& run) {
  const Group& g = run.groups.front();
  const WorldResult& first = g.first();
  const Options& o = run.opt;
  std::printf("initial synchronization complete at t=%s; Pi=%.2f us, gamma=%.2f us\n",
              util::hms(first.t0_ns).c_str(), first.cal.bound.pi_ns / 1000.0,
              first.cal.gamma_ns / 1000.0);
  experiments::print_precision_series(g.series, first.cal.bound.pi_ns, first.cal.gamma_ns,
                                      o.bucket_ns);
  if (o.world.injector) {
    std::printf("\nfault injection: %llu kills (%llu GM), %zu takeovers\n",
                (unsigned long long)g.sum(kill_count), (unsigned long long)g.sum(gm_kill_count),
                g.sum(takeover_count));
  }
  if (!o.world.attacks.empty()) {
    std::printf("attacks: %zu attempted, %zu succeeded\n", g.sum(&WorldResult::exploits_attempted),
                g.sum(&WorldResult::exploits_rooted));
  }
  if (o.world.ff) {
    std::printf("fast-forward: %llu windows skipped %s of %s (%.1f%%)\n",
                (unsigned long long)first.ff_stats.windows,
                util::human_ns(first.ff_stats.skipped_ns).c_str(),
                util::human_ns(o.world.horizon_ns).c_str(),
                100.0 * static_cast<double>(first.ff_stats.skipped_ns) /
                    static_cast<double>(std::max<std::int64_t>(o.world.horizon_ns, 1)));
  }
  if (!o.csv.empty()) {
    experiments::dump_series_csv(g.series, o.csv);
    std::printf("series written to %s\n", o.csv.c_str());
  }
  if (!o.events_csv.empty()) {
    experiments::dump_events_csv(g.events(), o.events_csv);
    std::printf("events written to %s\n", o.events_csv.c_str());
  }
  if (!o.world.pcap.empty()) {
    std::printf("pcap: %llu frames captured\n",
                (unsigned long long)g.sum(&WorldResult::pcap_frames));
  }
  std::printf("\nprecision bound held for %.2f%% of samples\n", 100.0 * g.holds);
  run.manifest.extra["bound_held_fraction"] = util::format("%.6f", g.holds);
  run.manifest.extra["takeovers"] = std::to_string(g.sum(takeover_count));
  run.manifest.extra["attacks_attempted"] =
      std::to_string(g.sum(&WorldResult::exploits_attempted));
  return 0;
}

/// Whether a replica held eq. (3.3) before its last exploit and broke it after.
struct AttackShape {
  bool masked = true;
  bool violated = false;
};

AttackShape attack_shape(const WorldResult& r, const Options& o) {
  std::int64_t last = 0;
  for (const attack::AttackSpec& e : o.world.attacks) last = std::max(last, e.start_ns);
  AttackShape s;
  for (const auto& p : r.series.points()) {
    const bool exceeds = p.value - r.cal.gamma_ns > r.cal.bound.pi_ns;
    if (p.t_ns < r.t0_ns + last) {
      s.masked = s.masked && !exceeds;
    } else {
      s.violated = s.violated || exceeds;
    }
  }
  return s;
}

/// E1/E2, the 1 h attack pair: with identical kernels the second exploit
/// defeats f = 1 and the bound breaks after it, and only then (DESIGN.md
/// §4); with diverse kernels the second exploit fails and the bound holds.
int report_attack(Run& run, bool identical) {
  const Group& g = run.groups.front();
  const WorldResult& first = g.first();
  const std::size_t n = g.replicas.size();
  std::size_t masked = 0, violated = 0, held = 0;
  for (const WorldResult& r : g.replicas) {
    const AttackShape s = attack_shape(r, run.opt);
    masked += s.masked;
    violated += s.violated;
    held += holds(r) == 1.0;
  }
  experiments::print_calibration(first.cal, 4120, 9188, 12'636, 1313);
  if (n > 1) {
    std::printf("\n%zu seed replicas on %zu threads; 1st exploit masked in %zu/%zu, "
                "bound violated after the 2nd in %zu/%zu\n",
                n, run.threads, masked, n, violated, n);
  }
  experiments::print_precision_series(g.series, first.cal.bound.pi_ns, first.cal.gamma_ns,
                                      run.opt.bucket_ns);

  const std::size_t exploits = g.sum(&WorldResult::exploits_rooted);
  const auto st = g.series.stats();
  if (identical) {
    experiments::print_comparison_table(
        "Fig. 3a outcome",
        {
            {"exploits succeeded", util::format("%zu (both GMs rooted)", 2 * n),
             std::to_string(exploits), "identical kernel 4.19.1"},
            {"1st attack (c41) masked", "yes", masked == n ? "yes" : "NO", "FTA tolerates f=1"},
            {"bound violated after 2nd attack", "yes", violated == n ? "yes" : "NO",
             "nodes lose synchronization"},
            {"max precision", "~1e16 ns", util::format("%.3g ns", st.max()),
             "explodes by orders of magnitude"},
        });
  } else {
    experiments::print_comparison_table(
        "Fig. 3b outcome",
        {
            {"exploits succeeded", util::format("%zu (only c41)", n), std::to_string(exploits),
             "c11 kernel is patched"},
            {"attack on c41 masked", "yes", masked == n ? "yes" : "NO", "FTA tolerates f=1"},
            {"bound ever violated", "no", held == n ? "no" : "YES",
             "diversification preserved BFT"},
            {"avg precision", "sub-us", util::format("%.0f ns", st.mean()), ""},
        });
  }
  if (!run.opt.csv.empty()) {
    experiments::dump_series_csv(g.series, run.opt.csv);
    std::printf("\nseries CSV: %s\n", run.opt.csv.c_str());
  }
  run.manifest.extra["exploits"] = std::to_string(exploits);
  if (identical) {
    run.manifest.extra["violated_replicas"] = std::to_string(n - held);
    return masked == n && violated == n ? 0 : 1;
  }
  run.manifest.extra["held_replicas"] = std::to_string(held);
  return exploits == n && held == n ? 0 : 1;
}

/// E3 (Fig. 4a and the sec. III-C scalars, T2), E4 (Fig. 4b) and E5
/// (Fig. 5): every emitter reads the one fault-injection run.
int report_fault_injection(Run& run) {
  const Group& g = run.groups.front();
  const WorldResult& first = g.first();
  const double pi = first.cal.bound.pi_ns;
  const double gamma = first.cal.gamma_ns;
  const std::size_t n = g.replicas.size();
  experiments::print_calibration(first.cal, 4120 - 600, 9188 - 1500, 11'420, 856);
  if (n > 1) {
    std::printf("\n%zu seed replicas on %zu threads; counts below are sums across replicas\n",
                n, run.threads);
  }
  experiments::print_precision_series(g.series, pi, gamma, run.opt.bucket_ns);

  const auto st = g.series.stats();
  const double hours =
      static_cast<double>(run.opt.world.horizon_ns) / 3.6e12 * static_cast<double>(n);
  experiments::print_comparison_table(
      "Section III-C results (scaled to the configured duration)",
      {
          {"duration", "24 h", util::format("%.1f h", hours), ""},
          {"fail-silent clock sync VMs", "94", std::to_string(g.sum(kill_count)), ""},
          {"of which GM failures", "48", std::to_string(g.sum(gm_kill_count)), ""},
          {"CLOCK_SYNCTIME takeovers", "(Fig. 5 stars)", std::to_string(g.sum(takeover_count)), ""},
          {"tx timestamp timeouts", "2992", std::to_string(g.sum(&WorldResult::tx_timeouts)),
           "igb driver issue, modelled stochastically"},
          {"tx deadline misses", "347", std::to_string(g.sum(&WorldResult::deadline_misses)), ""},
          {"avg precision", "322 ns", util::format("%.0f ns", st.mean()), ""},
          {"std precision", "421 ns", util::format("%.0f ns", st.stddev()), ""},
          {"min precision", "33 ns", util::format("%.0f ns", st.min()), ""},
          {"max precision", "10080 ns", util::format("%.0f ns", st.max()), ""},
          {"eq.(3.3) holds", "always", util::format("%.2f%% of samples", 100.0 * g.holds), ""},
      });

  // E4: the distribution of the same samples, plotted 0..1000 ns in 50 ns bins.
  experiments::print_precision_histogram(g.series);
  experiments::print_comparison_table(
      "Fig. 4b distribution statistics",
      {
          {"avg", "322 ns", util::format("%.0f ns", st.mean()), ""},
          {"std", "421 ns", util::format("%.0f ns", st.stddev()), ""},
          {"min", "33 ns", util::format("%.0f ns", st.min()), ""},
          {"max", "10080 ns", util::format("%.0f ns", st.max()),
           util::format("bound Pi+gamma = %.0f ns", pi + gamma)},
          {"shape", "sub-us bulk, long right tail",
           st.mean() < 1000 && st.max() > 4 * st.mean() ? "same" : "DIFFERENT", ""},
      });

  // E5: one hour of the first replica centred on its maximum, as the paper
  // centres Fig. 5 on its 10.08 us spike.
  std::int64_t peak_t = 0;
  double peak = -1.0;
  for (const auto& p : first.series.points()) {
    if (p.value > peak) {
      peak = p.value;
      peak_t = p.t_ns;
    }
  }
  const std::int64_t lo = std::max<std::int64_t>(peak_t - 30 * kMinute, 0);
  const std::int64_t hi = peak_t + 30 * kMinute;
  std::printf("\nmaximum measured precision: %.0f ns at %s (paper: 10080 ns at 06:45:49)\n"
              "Fig. 5 window: t_ns %lld .. %lld of the first replica's events\n",
              peak, util::hms(peak_t).c_str(), (long long)lo, (long long)hi);
  experiments::print_event_timeline(first.log, first.series, lo, hi, pi, gamma);
  std::size_t failures = 0, takeovers = 0, app_faults = 0;
  for (const auto& e : first.log.window(lo, hi)) {
    failures += e.kind == experiments::EventKind::kVmFailure;
    takeovers += e.kind == experiments::EventKind::kTakeover;
    app_faults += e.kind == experiments::EventKind::kAppFault;
  }
  experiments::print_comparison_table(
      "Fig. 5 event inventory (zoom window)",
      {
          {"VM failures (triangles)", "several/h", std::to_string(failures), "kill + detection"},
          {"takeovers (stars)", "follow GM failures", std::to_string(takeovers), ""},
          {"ptp4l app faults (crosses)", "tx_timeout/deadline", std::to_string(app_faults), ""},
          {"peak within Pi+gamma", "yes (10.08us < 12.28us)", peak - gamma <= pi ? "yes" : "NO",
           util::format("Pi+gamma=%.0f ns", pi + gamma)},
      });

  if (!run.opt.csv.empty()) {
    experiments::dump_aggregated_csv(g.series, 120 * kSecond, run.opt.csv);
    std::printf("\naggregated series CSV: %s\n", run.opt.csv.c_str());
  }
  if (!run.opt.events_csv.empty()) {
    experiments::dump_events_csv(g.events(), run.opt.events_csv);
    std::printf("events CSV: %s\n", run.opt.events_csv.c_str());
  }
  auto& extra = run.manifest.extra;
  extra["duration_h"] = util::format("%g", hours);
  extra["total_kills"] = std::to_string(g.sum(kill_count));
  extra["takeovers"] = std::to_string(g.sum(takeover_count));
  extra["holding_fraction"] = util::format("%.6f", g.holds);
  extra["samples"] = std::to_string(g.series.points().size());
  extra["avg_ns"] = util::format("%.1f", st.mean());
  extra["max_ns"] = util::format("%.1f", st.max());
  extra["fig5_peak_ns"] = util::format("%.1f", peak);
  extra["fig5_lo_ns"] = std::to_string(lo);
  extra["fig5_hi_ns"] = std::to_string(hi);
  return g.holds == 1.0 ? 0 : 1;
}

/// T1: the sec. III-A3 calibration of both experiments. The paper's two
/// runs differ only in their latency measurements; two seeds (two cabling
/// and jitter draws) reproduce that.
int report_calibration(Run& run) {
  struct Paper {
    double dmin, dmax, pi, gamma;
  };
  const Paper paper[] = {{4120, 9188, 12'636, 1313}, {3520, 7688, 11'420, 856}};
  int rc = 0;
  for (std::size_t i = 0; i < run.groups.size(); ++i) {
    const Group& g = run.groups[i];
    const auto& cal = g.first().cal;
    std::printf("\n--- %s (seed %llu)\n", g.label, (unsigned long long)g.cfg.seed);
    experiments::print_calibration(cal, paper[i].dmin, paper[i].dmax, paper[i].pi,
                                   paper[i].gamma);
    // Sanity: same order of magnitude as the testbed.
    for (const WorldResult& r : g.replicas) {
      if (r.cal.bound.pi_ns < 6'000 || r.cal.bound.pi_ns > 25'000) rc = 1;
    }
    run.manifest.extra[util::format("pi_ns_exp%zu", i + 1)] =
        util::format("%.1f", cal.bound.pi_ns);
    run.manifest.extra[util::format("gamma_ns_exp%zu", i + 1)] =
        util::format("%.1f", cal.gamma_ns);
  }
  std::printf("\nNote: paper experiment 2 reports only Pi and gamma; its dmin/dmax\n"
              "columns above are back-derived from Pi = 2(E + 1.25us).\n");
  return rc;
}

/// B1: both architectures on the same physically separated testbed. The
/// baseline's GMs drift apart, so a Byzantine GM has no common reference
/// to be voted against.
int report_baseline(Run& run) {
  const auto disagreement = [](const Group& g) {
    return g.sum(&WorldResult::gm_disagreement_ns) / static_cast<double>(g.replicas.size());
  };
  const Group& paper = run.groups[0];
  const Group& baseline = run.groups[1];
  const double paper_ns = disagreement(paper);
  const double baseline_ns = disagreement(baseline);
  experiments::print_comparison_table(
      "Both architectures after the same run on physically separated nodes",
      {
          {"client precision avg", util::format("%.0f ns", paper.series.stats().mean()),
           util::format("%.0f ns", baseline.series.stats().mean()), "paper vs baseline"},
          {"client precision max", util::format("%.0f ns", paper.series.stats().max()),
           util::format("%.0f ns", baseline.series.stats().max()), ""},
          {"GM clock disagreement", util::format("%.3g ns", paper_ns),
           util::format("%.3g ns", baseline_ns), "baseline GMs share no timebase"},
      });
  const bool ok = paper_ns < 5'000.0 && baseline_ns > 20.0 * paper_ns;
  std::printf("\nexpected shape: the paper's GMs agree to sub-us while the baseline's\n"
              "drift apart unboundedly (here: %.1fx worse after this run), so a\n"
              "Byzantine GM cannot be voted against any common reference -- the\n"
              "baseline's Byzantine fault tolerance does not survive physically\n"
              "separated GMs. shape: %s\n",
              baseline_ns / std::max(paper_ns, 1.0), ok ? "OK" : "DIFFERENT");
  run.manifest.extra["gm_disagreement_ns_paper"] = util::format("%.1f", paper_ns);
  run.manifest.extra["gm_disagreement_ns_baseline"] = util::format("%.1f", baseline_ns);
  return ok ? 0 : 1;
}

/// A1: FTA and median mask one -24 us GM; the plain mean is dragged by
/// ~-24/4 us. Validity exclusion is off, so the aggregation alone decides.
int report_aggregation(Run& run) {
  std::vector<experiments::ComparisonRow> table;
  for (std::size_t i = 0; i < run.groups.size(); ++i) {
    const Group& g = run.groups[i];
    const auto st = g.series.stats();
    table.push_back({g.label,
                     g.cfg.aggregation == core::AggregationMethod::kMean ? "breaks" : "masks",
                     util::format("avg=%.0fns max=%.0fns holds=%.0f%%", st.mean(), st.max(),
                                  100 * g.holds),
                     ""});
    run.manifest.extra[util::format("holds_%zu", i)] = util::format("%.6f", g.holds);
  }
  experiments::print_comparison_table("Aggregation ablation, 1 Byzantine GM of 4", table);
  const auto& gs = run.groups;
  const bool ok = gs[0].holds == 1.0 && gs[1].holds == 1.0 &&
                  gs[2].series.stats().mean() > 3 * gs[0].series.stats().mean();
  std::printf("\nexpected shape (FTA/median mask, mean degrades): %s\n", ok ? "OK" : "DIFFERENT");
  return ok ? 0 : 1;
}

/// The fault-free ablations' shape: eq. (3.3) holds in every variant.
int bound_held_in_every_variant(const Run& run) {
  const bool ok = std::all_of(run.groups.begin(), run.groups.end(),
                              [](const Group& g) { return g.holds == 1.0; });
  std::printf("\nexpected shape (fault-free, the bound holds in every variant): %s\n",
              ok ? "OK" : "DIFFERENT");
  return ok ? 0 : 1;
}

/// A2: the paper blames its precision spikes on the feedback control of
/// CLOCK_SYNCTIME and names RADclock's feed-forward design as the fix.
int report_feed_forward(Run& run) {
  std::vector<experiments::ComparisonRow> table;
  std::vector<double> p99;
  for (const Group& g : run.groups) {
    util::SampleSet samples;
    for (const auto& p : g.series.points()) samples.add(p.value);
    p99.push_back(samples.quantile(0.99));
    const auto st = g.series.stats();
    table.push_back({g.label,
                     g.cfg.synctime_feed_forward ? "(hypothesized better tail)" : "(baseline)",
                     util::format("avg=%.0fns p99=%.0fns max=%.0fns", st.mean(), p99.back(),
                                  st.max()),
                     ""});
  }
  experiments::print_comparison_table("CLOCK_SYNCTIME derivation ablation (fault-free)", table);
  std::printf("\npaper hypothesis: feed-forward reduces spike tail; measured tail ratio "
              "(feedback/feed-forward p99) = %.2f\n",
              p99[0] / p99[1]);
  run.manifest.extra["p99_feedback_ns"] = util::format("%.1f", p99[0]);
  run.manifest.extra["p99_feed_forward_ns"] = util::format("%.1f", p99[1]);
  return bound_held_in_every_variant(run);
}

/// A3: the bound's drift term Gamma = 2 * rmax * S grows linearly in S,
/// while the measured precision stays jitter-limited.
int report_sync_interval(Run& run) {
  std::vector<experiments::ComparisonRow> table;
  for (const Group& g : run.groups) {
    const auto& bound = g.first().cal.bound;
    const auto st = g.series.stats();
    const auto s_ns = static_cast<long long>(g.cfg.sync_interval_ns);
    table.push_back({util::format("S = %.2f ms", static_cast<double>(s_ns) / 1e6),
                     util::format("Gamma=%.2fus", bound.drift_offset_ns / 1000.0),
                     util::format("avg=%.0fns max=%.0fns", st.mean(), st.max()),
                     util::format("Pi=%.1fus", bound.pi_ns / 1000.0)});
    run.manifest.extra[util::format("pi_us_S%lld", s_ns)] =
        util::format("%.2f", bound.pi_ns / 1000.0);
  }
  experiments::print_comparison_table("Sync interval sweep (fault-free)", table);
  return bound_held_in_every_variant(run);
}

// ---- the experiment table --------------------------------------------------

struct Variant {
  const char* label;
  const char* delta; ///< "key=value" set over the row's keys
};

/// One experiment of DESIGN.md §4: what differs from a custom run.
struct Experiment {
  const char* id;
  const char* title;
  const char* reproduces;
  const char* defaults;          ///< "key=value ...", under the command line
  std::vector<Variant> variants; ///< worlds the report compares; none = one
  int (*report)(Run&);
};

const Experiment kExperiments[] = {
    {"", nullptr, nullptr, "", {}, report_custom},
    {"t1", "Path latency calibration and precision bounds",
     "Sec. III-A3 scalars for both experiments", "horizon=0 rounds=60",
     {{"experiment 1 (attack)", "seed=1"}, {"experiment 2 (fault injection)", "seed=2"}},
     report_calibration},
    {"e1", "Cyber-resilience attack, identical kernels", "Fig. 3a (DSN-S'23 sec. III-B)",
     "horizon=60m attack_at=1302s attack_gm=3 attack2_at=1912s attack2_gm=0 "
     "csv=fig3a_series.csv",
     {},
     [](Run& run) { return report_attack(run, true); }},
    {"e2", "Cyber-resilience attack, diverse kernels", "Fig. 3b (DSN-S'23 sec. III-B)",
     "horizon=60m gm_kernels=5.4.0,5.10.0,5.15.0,4.19.1 attack_at=1302s attack_gm=3 "
     "attack2_at=1912s attack2_gm=0 csv=fig3b_series.csv",
     {},
     [](Run& run) { return report_attack(run, false); }},
    {"e3", "24h fault injection: precision under fail-silent faults",
     "Fig. 4a, Fig. 4b, Fig. 5 + Table scalars (DSN-S'23 sec. III-C)",
     "horizon=24h inject_faults=true gm_downtime_s=90 standby_downtime_s=90 "
     "p_tx_timeout=1.06e-3 p_late_launch=1.25e-4 bucket_s=1800 csv=fig4a_aggregated.csv "
     "events_csv=fig4a_events.csv",
     {},
     report_fault_injection},
    {"b1", "Baseline: Kyriakakis et al. client-only aggregation",
     "sec. I related-work comparison", "horizon=30m",
     {{"paper's architecture", "gm_mutual_sync=true"}, {"baseline", "gm_mutual_sync=false"}},
     report_baseline},
    {"a1", "Ablation: FTA vs median vs mean under one Byzantine GM",
     "design choice behind sec. II-B",
     "horizon=10m validity_threshold_ns=1e9 attack_at=0s attack_gm=2",
     {{"fta (paper)", "aggregation=fta"},
      {"median", "aggregation=median"},
      {"mean (no fault tolerance)", "aggregation=mean"}},
     report_aggregation},
    {"a2", "Ablation: feedback vs feed-forward CLOCK_SYNCTIME",
     "sec. III-C discussion / future work", "horizon=30m",
     {{"feedback (phc2sys-style, paper)", "feed_forward=false"},
      {"feed-forward (RADclock-style)", "feed_forward=true"}},
     report_feed_forward},
    {"a3", "Ablation: sync interval S sweep", "bound structure of sec. III-A3", "horizon=5m",
     {{nullptr, "sync_interval_ns=31200000"},
      {nullptr, "sync_interval_ns=62500000"},
      {nullptr, "sync_interval_ns=125000000"},
      {nullptr, "sync_interval_ns=250000000"},
      {nullptr, "sync_interval_ns=500000000"}},
     report_sync_interval},
};

const Experiment& find_experiment(const std::string& id) {
  for (const Experiment& e : kExperiments) {
    if (id == e.id) return e;
  }
  throw std::invalid_argument("unknown exp '" + id + "' (t1, e1, e2, e3, b1, a1, a2 or a3)");
}

/// Set every "key=value" of a space-separated list.
void set_all(util::Config& cfg, const std::string& kvs) {
  for (const std::string& kv : util::split(kvs, ' ')) {
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    cfg.set(kv.substr(0, eq), kv.substr(eq + 1));
  }
}

int run(const util::Config& user) {
  const Experiment& exp = find_experiment(user.get_string("exp"));
  const std::string id = exp.id;
  util::Config cli;
  set_all(cli, exp.defaults);
  for (const auto& [key, value] : user.values()) {
    if (key != "exp") cli.set(key, value);
  }
  util::set_log_level(util::parse_log_level(cli.get_string("log", id.empty() ? "info" : "warn")));
  const experiments::ScenarioConfig world = read_world(cli);
  const Options opt = read_options(
      cli, world, id.empty() ? "tsnfta_sim_manifest.json" : "tsnfta_sim_" + id + "_manifest.json");

  // Every variant's world under the same keys; seeds= replicas each.
  const std::vector<Variant> variants =
      exp.variants.empty() ? std::vector<Variant>{{nullptr, ""}} : exp.variants;
  std::vector<experiments::ScenarioConfig> configs;
  for (const Variant& v : variants) {
    util::Config delta;
    set_all(delta, v.delta);
    util::Config variant_cli = cli;
    for (const auto& [key, value] : delta.values()) {
      if (user.has(key)) throw std::invalid_argument("exp=" + id + " sets " + key + "= itself");
      variant_cli.set(key, value);
    }
    for (const auto& cfg : sweep::seed_sweep(read_world(variant_cli), opt.seeds)) {
      configs.push_back(cfg);
    }
    variant_cli.reject_unread();
  }

  if (exp.title) experiments::print_banner(exp.title, exp.reproduces);
  sweep::SweepRunner runner({.threads = opt.threads});
  std::printf("booting the %zu-ECD %s testbed (seed %llu%s)...\n", world.num_ecds,
              experiments::topology_name(world.topology),
              static_cast<unsigned long long>(configs.front().seed),
              configs.size() > 1
                  ? util::format(", %zu worlds, threads=%zu", configs.size(), runner.threads())
                        .c_str()
                  : "");
  if (!opt.world.pcap.empty()) {
    std::printf("capturing the measurement VM's traffic to %s\n", opt.world.pcap.c_str());
  }
  if (opt.world.horizon_ns > 0) {
    std::printf("running the measured phase for %g min...\n",
                static_cast<double>(opt.world.horizon_ns) / static_cast<double>(kMinute));
  }
  auto results = runner.run(configs, [&](const experiments::ScenarioConfig& cfg, std::size_t i) {
    check::WorldSpec spec = opt.world;
    spec.scenario = cfg;
    if (i > 0) spec.pcap.clear();
    return check::run_world(spec);
  });

  Run run{opt, {}, runner.threads(), {}};
  std::vector<obs::MetricsSnapshot> metric_parts;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    Group g;
    g.label = variants[v].label;
    g.cfg = configs[v * opt.seeds];
    std::vector<util::TimeSeries> series;
    double held = 0;
    std::size_t samples = 0;
    for (std::size_t s = 0; s < opt.seeds; ++s) {
      WorldResult& r = results[v * opt.seeds + s];
      series.push_back(r.series);
      metric_parts.push_back(r.metrics);
      held += holds(r) * static_cast<double>(r.series.points().size());
      samples += r.series.points().size();
      g.replicas.push_back(std::move(r));
    }
    g.series = sweep::merge_series(series);
    g.holds = samples == 0 ? 1.0 : held / static_cast<double>(samples);
    run.groups.push_back(std::move(g));
  }
  run.manifest.tool = "tsnfta_sim";
  run.manifest.seed = configs.front().seed;
  run.manifest.replicas = configs.size();
  run.manifest.threads = runner.threads();
  run.manifest.scenario = experiments::scenario_kv(configs.front());
  run.manifest.metrics = sweep::merge_metrics(metric_parts);
  if (!id.empty()) run.manifest.extra["exp"] = id;

  const int rc = exp.report(run);
  if (opt.manifest != "none") {
    obs::write_manifest(opt.manifest, run.manifest);
    std::printf("run manifest -> %s (git %s)\n", opt.manifest.c_str(), obs::build_git_sha());
  }
  return rc;
}

} // namespace

int main(int argc, char** argv) {
  // Bad input -- malformed key=value, a key this invocation does not read,
  // a number that does not parse whole, a combination the world rejects --
  // exits 2 with the usage line instead of running something else. Every
  // option is read before any world runs.
  try {
    return run(util::Config::from_args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "usage: tsnfta_sim [exp=<id>] [key=value ...]   (%s)\n", e.what());
    return 2;
  }
}
