// ExperimentHarness: wires a Scenario to the measurement infrastructure
// and event recording, and drives the phases every reproduction binary
// shares: boot -> initial synchronization -> offline bound calibration ->
// measured run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/event_log.hpp"
#include "experiments/scenario.hpp"
#include "measure/bound.hpp"

namespace tsn::experiments {

class ExperimentHarness {
 public:
  explicit ExperimentHarness(Scenario& scenario);

  /// Boot the testbed and run until every VM finished the startup phase
  /// (fault-free initial synchronization), plus a short settle period for
  /// the servos' post-transition transients. Throws if it does not
  /// converge within `limit_ns`.
  void bring_up(std::int64_t limit_ns = 120'000'000'000LL,
                std::int64_t settle_ns = 20'000'000'000LL);

  /// Offline calibration (paper section III-A3): measure node-to-node
  /// latencies, derive E, gamma and the bound Pi.
  struct Calibration {
    double dmin_ns = 0;
    double dmax_ns = 0;
    double gamma_ns = 0;
    measure::PrecisionBound bound;
  };
  Calibration calibrate(int rounds = 40, std::int64_t spacing_ns = 50'000'000);

  /// Start the precision probe and run for `duration_ns`.
  void run_measured(std::int64_t duration_ns);

  /// The experiment event log. Partitioned scenarios record into one log
  /// per region (each only ever touched by its region's shard) and this
  /// accessor merges them by (time, region) on demand; serial scenarios
  /// return the single live log directly. Record through region_log().
  const EventLog& events();
  /// The live log of region `region` (the one log when serial). Only code
  /// running on that region's shard may record into it.
  EventLog& region_log(std::size_t region) { return logs_.at(region); }
  Scenario& scenario() { return scenario_; }
  const Calibration& calibration() const { return calibration_; }

  /// Total ptp4l application faults observed (across reboots).
  std::uint64_t total_tx_timestamp_timeouts();
  std::uint64_t total_deadline_misses();

 private:
  void wire_event_recording();

  Scenario& scenario_;
  std::vector<EventLog> logs_; ///< one (serial) or one per region
  EventLog merged_;            ///< cache for the partitioned events() view
  Calibration calibration_;
  bool started_ = false;
};

} // namespace tsn::experiments
