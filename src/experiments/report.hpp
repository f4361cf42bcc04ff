// Terminal and CSV emitters for the reproduction binaries: each bench
// prints the same rows/series the paper's tables and figures report.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "experiments/event_log.hpp"
#include "experiments/harness.hpp"
#include "experiments/scenario.hpp"
#include "util/histogram.hpp"
#include "util/series.hpp"

namespace tsn::experiments {

/// One "paper vs measured" comparison row.
struct ComparisonRow {
  std::string metric;
  std::string paper;
  std::string measured;
  std::string note;
};

void print_comparison_table(const std::string& title, const std::vector<ComparisonRow>& rows);

/// The header a reproduction run prints first: what it is and which part
/// of the paper it reproduces.
void print_banner(const std::string& title, const std::string& paper_ref);

/// Section III-A3 scalars: dmin/dmax/E/Gamma/Pi/gamma.
void print_calibration(const ExperimentHarness::Calibration& cal, double paper_dmin_ns,
                       double paper_dmax_ns, double paper_pi_ns, double paper_gamma_ns);

/// Fig. 3a/3b/4a-style series: 120 s (configurable) aggregation with
/// avg/min/max per bucket plus bound-violation marking.
void print_precision_series(const util::TimeSeries& series, double pi_ns, double gamma_ns,
                            std::int64_t bucket_ns = 120'000'000'000LL);

/// Fig. 4b-style distribution (histogram + avg/std/min/max line).
void print_precision_histogram(const util::TimeSeries& series, double bin_ns = 50.0,
                               double range_hi_ns = 1'000.0);

/// Fig. 5-style annotated timeline of a window.
void print_event_timeline(const EventLog& log, const util::TimeSeries& series,
                          std::int64_t lo_ns, std::int64_t hi_ns, double pi_ns, double gamma_ns);

/// CSV dumps for external plotting.
void dump_series_csv(const util::TimeSeries& series, const std::string& path);
void dump_aggregated_csv(const util::TimeSeries& series, std::int64_t bucket_ns,
                         const std::string& path);
void dump_events_csv(const EventLog& log, const std::string& path);

/// Fraction of samples with (value - gamma) <= pi, i.e. eq. 3.3 holding.
double bound_holding_fraction(const util::TimeSeries& series, double pi_ns, double gamma_ns);

/// Stringify the scenario knobs for the run manifest (stable key names,
/// %g formatting for doubles).
std::map<std::string, std::string> scenario_kv(const ScenarioConfig& cfg);

} // namespace tsn::experiments
