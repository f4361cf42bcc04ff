#include "experiments/harness.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"
#include "util/str.hpp"

namespace tsn::experiments {

ExperimentHarness::ExperimentHarness(Scenario& scenario) : scenario_(scenario) {
  logs_.resize(scenario_.partitioned() ? scenario_.num_ecds() : 1);
  wire_event_recording();
}

void ExperimentHarness::wire_event_recording() {
  for (std::size_t x = 0; x < scenario_.num_ecds(); ++x) {
    hv::Ecd& ecd = scenario_.ecd(x);
    // Each ECD records into its region's log with its region's clock
    // (ecd.sim() is the shared Simulation when serial); the callbacks run
    // only in that region's shard, so the logs need no synchronization.
    EventLog& log = logs_[scenario_.partitioned() ? x : 0];
    ecd.monitor().on_vm_failure = [&log, &ecd](std::size_t idx) {
      log.record(ecd.sim().now().ns(), EventKind::kVmFailure, ecd.vm(idx).name());
    };
    ecd.monitor().on_takeover = [&log, &ecd](std::size_t idx) {
      log.record(ecd.sim().now().ns(), EventKind::kTakeover, ecd.vm(idx).name());
    };
    ecd.monitor().on_vm_recovery = [&log, &ecd](std::size_t idx) {
      log.record(ecd.sim().now().ns(), EventKind::kVmRecovery, ecd.vm(idx).name());
    };
    for (std::size_t i = 0; i < ecd.vm_count(); ++i) {
      ecd.vm(i).set_fault_callback([&log, &ecd](const std::string& vm, const std::string& kind) {
        log.record(ecd.sim().now().ns(), EventKind::kAppFault, vm, kind);
      });
    }
  }
}

const EventLog& ExperimentHarness::events() {
  if (!scenario_.partitioned()) return logs_[0];
  // Rebuild the merged view: (time, region, in-region order) is a total
  // order identical for every partition count and thread schedule.
  merged_ = EventLog{};
  struct Tagged {
    std::int64_t t_ns;
    std::size_t region;
    std::size_t idx;
  };
  std::vector<Tagged> order;
  for (std::size_t r = 0; r < logs_.size(); ++r) {
    const auto& evs = logs_[r].events();
    for (std::size_t i = 0; i < evs.size(); ++i) order.push_back({evs[i].t_ns, r, i});
  }
  std::sort(order.begin(), order.end(), [](const Tagged& a, const Tagged& b) {
    if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
    if (a.region != b.region) return a.region < b.region;
    return a.idx < b.idx;
  });
  for (const Tagged& t : order) {
    const ExperimentEvent& e = logs_[t.region].events()[t.idx];
    merged_.record(e.t_ns, e.kind, e.subject, e.detail);
  }
  return merged_;
}

void ExperimentHarness::bring_up(std::int64_t limit_ns, std::int64_t settle_ns) {
  if (!started_) {
    scenario_.start();
    started_ = true;
  }
  const std::int64_t step = 1'000'000'000;
  while (!scenario_.all_in_fta_phase()) {
    if (scenario_.now_ns() > limit_ns) {
      throw std::runtime_error("bring_up: initial synchronization did not converge");
    }
    scenario_.run_to(scenario_.now_ns() + step);
  }
  TSN_LOG_INFO("harness", "all VMs in FTA phase at t=%s",
               util::hms(scenario_.now_ns()).c_str());
  scenario_.run_to(scenario_.now_ns() + settle_ns);
}

ExperimentHarness::Calibration ExperimentHarness::calibrate(int rounds,
                                                            std::int64_t spacing_ns) {
  bool done = false;
  scenario_.path_meter().run(rounds, spacing_ns, [&] { done = true; });
  while (!done) {
    scenario_.run_to(scenario_.now_ns() + spacing_ns);
  }
  auto& meter = scenario_.path_meter();
  calibration_.dmin_ns = meter.dmin_ns();
  calibration_.dmax_ns = meter.dmax_ns();
  calibration_.gamma_ns =
      meter.gamma_ns(scenario_.measurement_vm_name(), scenario_.probe_destinations());

  measure::BoundInputs in;
  in.n = static_cast<int>(scenario_.num_ecds());
  in.f = scenario_.config().fta_f;
  in.dmin_ns = calibration_.dmin_ns;
  in.dmax_ns = calibration_.dmax_ns;
  in.rmax_ppm = scenario_.config().max_drift_ppm;
  in.sync_interval_ns = scenario_.config().sync_interval_ns;
  calibration_.bound = measure::compute_bound(in);
  return calibration_;
}

void ExperimentHarness::run_measured(std::int64_t duration_ns) {
  scenario_.probe().start();
  scenario_.run_to(scenario_.now_ns() + duration_ns);
  scenario_.probe().stop();
}

std::uint64_t ExperimentHarness::total_tx_timestamp_timeouts() {
  std::uint64_t total = 0;
  for (std::size_t x = 0; x < scenario_.num_ecds(); ++x) {
    for (std::size_t i = 0; i < scenario_.ecd(x).vm_count(); ++i) {
      total += scenario_.vm(x, i).total_tx_timestamp_timeouts();
    }
  }
  return total;
}

std::uint64_t ExperimentHarness::total_deadline_misses() {
  std::uint64_t total = 0;
  for (std::size_t x = 0; x < scenario_.num_ecds(); ++x) {
    for (std::size_t i = 0; i < scenario_.ecd(x).vm_count(); ++i) {
      total += scenario_.vm(x, i).total_deadline_misses();
    }
  }
  return total;
}

} // namespace tsn::experiments
