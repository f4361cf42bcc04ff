#include "experiments/report.hpp"

#include <algorithm>
#include <cstdio>

#include "util/csv.hpp"
#include "util/str.hpp"

namespace tsn::experiments {
namespace {

void hr(char c = '-', int width = 78) {
  std::string line(width, c);
  std::printf("%s\n", line.c_str());
}

} // namespace

void print_comparison_table(const std::string& title, const std::vector<ComparisonRow>& rows) {
  std::printf("\n%s\n", title.c_str());
  hr('=');
  std::printf("%-34s %-16s %-16s %s\n", "metric", "paper", "measured", "note");
  hr();
  for (const auto& r : rows) {
    std::printf("%-34s %-16s %-16s %s\n", r.metric.c_str(), r.paper.c_str(), r.measured.c_str(),
                r.note.c_str());
  }
  hr();
}

void print_banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n################################################################\n");
  std::printf("# %s\n", title.c_str());
  std::printf("# reproduces: %s\n", paper_ref.c_str());
  std::printf("################################################################\n");
}

void print_calibration(const ExperimentHarness::Calibration& cal, double paper_dmin_ns,
                       double paper_dmax_ns, double paper_pi_ns, double paper_gamma_ns) {
  print_comparison_table(
      "Calibration: path delays and precision bound (paper sec. III-A3)",
      {
          {"dmin (min node-to-node latency)", util::format("%.0fns", paper_dmin_ns),
           util::format("%.0fns", cal.dmin_ns), ""},
          {"dmax (max node-to-node latency)", util::format("%.0fns", paper_dmax_ns),
           util::format("%.0fns", cal.dmax_ns), ""},
          {"E = dmax - dmin", util::format("%.0fns", paper_dmax_ns - paper_dmin_ns),
           util::format("%.0fns", cal.bound.reading_error_ns), ""},
          {"Gamma = 2*rmax*S", "1250ns", util::format("%.0fns", cal.bound.drift_offset_ns),
           "rmax=5ppm, S=125ms"},
          {"Pi = u(N,f)*(E+Gamma)", util::format("%.2fus", paper_pi_ns / 1000.0),
           util::format("%.2fus", cal.bound.pi_ns / 1000.0), "u(4,1)=2"},
          {"gamma (measurement error)", util::format("%.0fns", paper_gamma_ns),
           util::format("%.0fns", cal.gamma_ns), "measurement VLAN paths"},
      });
}

double bound_holding_fraction(const util::TimeSeries& series, double pi_ns, double gamma_ns) {
  if (series.empty()) return 1.0;
  std::size_t ok = 0;
  for (const auto& p : series.points()) {
    if (p.value - gamma_ns <= pi_ns) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(series.points().size());
}

void print_precision_series(const util::TimeSeries& series, double pi_ns, double gamma_ns,
                            std::int64_t bucket_ns) {
  std::printf("\nMeasured clock synchronization precision Pi* "
              "(aggregated over %llds buckets)\n",
              static_cast<long long>(bucket_ns / 1'000'000'000));
  hr();
  std::printf("%-10s %12s %12s %12s  %s\n", "t", "avg[ns]", "min[ns]", "max[ns]", "");
  hr();
  for (const auto& b : series.aggregate(bucket_ns)) {
    const bool violated = (b.max - gamma_ns) > pi_ns;
    std::printf("%-10s %12.0f %12.0f %12.0f  %s\n", util::hms(b.bucket_start_ns).c_str(), b.avg,
                b.min, b.max, violated ? "<-- exceeds Pi+gamma" : "");
  }
  hr();
  const auto st = series.stats();
  std::printf("samples=%llu avg=%.0fns std=%.0fns min=%.0fns max=%.0fns\n",
              static_cast<unsigned long long>(st.count()), st.mean(), st.stddev(), st.min(),
              st.max());
  std::printf("bound: Pi=%.2fus gamma=%.2fus; eq.(3.3) holds for %.2f%% of samples\n",
              pi_ns / 1000.0, gamma_ns / 1000.0,
              100.0 * bound_holding_fraction(series, pi_ns, gamma_ns));
}

void print_precision_histogram(const util::TimeSeries& series, double bin_ns,
                               double range_hi_ns) {
  util::Histogram h(0.0, range_hi_ns, bin_ns);
  for (const auto& p : series.points()) h.add(p.value);
  std::printf("\nDistribution of measured clock synchronization precision (Fig. 4b)\n");
  hr();
  std::printf("%s", h.ascii(48).c_str());
  hr();
  const auto& st = h.stats();
  std::printf("avg = %.0fns, std = %.0fns, min = %.0fns, max = %.0fns\n", st.mean(), st.stddev(),
              st.min(), st.max());
}

void print_event_timeline(const EventLog& log, const util::TimeSeries& series, std::int64_t lo_ns,
                          std::int64_t hi_ns, double pi_ns, double gamma_ns) {
  std::printf("\nEvent timeline %s .. %s (Fig. 5 style)\n", util::hms(lo_ns).c_str(),
              util::hms(hi_ns).c_str());
  hr();
  const auto window = series.window(lo_ns, hi_ns);
  util::RunningStats st;
  for (const auto& p : window) st.add(p.value);
  std::printf("precision in window: avg=%.0fns max=%.0fns (Pi=%.2fus gamma=%.2fus)\n", st.mean(),
              st.max(), pi_ns / 1000.0, gamma_ns / 1000.0);
  hr();
  for (const auto& e : log.window(lo_ns, hi_ns)) {
    const char* marker = "·";
    switch (e.kind) {
      case EventKind::kVmFailure: marker = "v"; break;   // triangle in the paper
      case EventKind::kTakeover: marker = "*"; break;    // star
      case EventKind::kAppFault: marker = "x"; break;    // cross
      case EventKind::kVmReboot:
      case EventKind::kVmRecovery: marker = "^"; break;
      case EventKind::kAttack: marker = "!"; break;
      default: break;
    }
    std::printf("%s  %s %-14s %-8s %s\n", util::hms(e.t_ns).c_str(), marker, to_string(e.kind),
                e.subject.c_str(), e.detail.c_str());
  }
  hr();
}

void dump_series_csv(const util::TimeSeries& series, const std::string& path) {
  util::CsvWriter csv(path, {"t_ns", "precision_ns"});
  for (const auto& p : series.points()) {
    csv.row_numeric({static_cast<double>(p.t_ns), p.value});
  }
}

void dump_aggregated_csv(const util::TimeSeries& series, std::int64_t bucket_ns,
                         const std::string& path) {
  util::CsvWriter csv(path, {"bucket_start_ns", "avg_ns", "min_ns", "max_ns", "count"});
  for (const auto& b : series.aggregate(bucket_ns)) {
    csv.row_numeric({static_cast<double>(b.bucket_start_ns), b.avg, b.min, b.max,
                     static_cast<double>(b.count)});
  }
}

void dump_events_csv(const EventLog& log, const std::string& path) {
  util::CsvWriter csv(path, {"t_ns", "kind", "subject", "detail"});
  for (const auto& e : log.events()) {
    csv.row({std::to_string(e.t_ns), to_string(e.kind), e.subject, e.detail});
  }
}

std::map<std::string, std::string> scenario_kv(const ScenarioConfig& cfg) {
  std::map<std::string, std::string> kv;
  kv["num_ecds"] = std::to_string(cfg.num_ecds);
  kv["topology"] = topology_name(cfg.topology);
  kv["num_domains"] = std::to_string(cfg.num_domains);
  kv["partitions"] = std::to_string(cfg.partitions);
  kv["max_drift_ppm"] = util::format("%g", cfg.max_drift_ppm);
  kv["wander_sigma_ppm"] = util::format("%g", cfg.wander_sigma_ppm);
  kv["nic_ts_jitter_ns"] = util::format("%g", cfg.nic_ts_jitter_ns);
  kv["initial_phase_range_ns"] = util::format("%g", cfg.initial_phase_range_ns);
  kv["host_link_delay_ns"] = std::to_string(cfg.host_link_delay_ns);
  kv["mesh_link_delay_ns"] = std::to_string(cfg.mesh_link_delay_ns);
  kv["switch_residence_ns"] = std::to_string(cfg.switch_residence_ns);
  kv["sync_interval_ns"] = std::to_string(cfg.sync_interval_ns);
  kv["validity_threshold_ns"] = util::format("%g", cfg.validity_threshold_ns);
  kv["startup_threshold_ns"] = util::format("%g", cfg.startup_threshold_ns);
  kv["startup_consecutive"] = std::to_string(cfg.startup_consecutive);
  switch (cfg.aggregation) {
    case core::AggregationMethod::kFta: kv["aggregation"] = "fta"; break;
    case core::AggregationMethod::kMedian: kv["aggregation"] = "median"; break;
    case core::AggregationMethod::kMean: kv["aggregation"] = "mean"; break;
  }
  kv["fta_f"] = std::to_string(cfg.fta_f);
  kv["synctime_period_ns"] = std::to_string(cfg.synctime_period_ns);
  kv["synctime_feed_forward"] = cfg.synctime_feed_forward ? "1" : "0";
  kv["gm_mutual_sync"] = cfg.gm_mutual_sync ? "1" : "0";
  kv["measurement_ecd"] = std::to_string(cfg.measurement_ecd);
  return kv;
}

} // namespace tsn::experiments
