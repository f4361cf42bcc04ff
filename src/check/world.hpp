// One world of the virtualized TSN testbed from construction to harvest:
// the phase sequence behind every `tsnfta_sim` row and every fuzz case.
// Scenario and harness (ptp4l fault model, pcap), bring-up, calibration,
// oracles, attacks, fault injector, fast-forward, the horizon (probe on
// when asked), harvest. The order fixes the event queue's sequence
// numbers, so it is part of every output's byte identity.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attack/attack.hpp"
#include "check/invariant.hpp"
#include "experiments/harness.hpp"
#include "faults/injector.hpp"
#include "obs/metrics.hpp"
#include "sim/fast_forward.hpp"
#include "util/series.hpp"

namespace tsn::check {

struct WorldSpec {
  experiments::ScenarioConfig scenario;
  gptp::InstanceFaultModel fault_model; ///< transient ptp4l faults on every VM
  int rounds = 40;                      ///< calibration rounds
  attack::AttackSchedule attacks;       ///< start_ns counts from the end of calibration
  /// Set: run the fault injector, scripted by a non-empty `replay`.
  std::optional<faults::InjectorConfig> injector;
  faults::ReplaySchedule replay;
  bool oracles = false; ///< the invariant suite
  /// Measure Pi* over the horizon (the injector spares its receiver) and
  /// harvest the series, event log, metrics and GM clock disagreement.
  bool probe = false;
  bool ff = false;
  std::int64_t horizon_ns = 0; ///< 0 skips the horizon
  std::string pcap;            ///< capture file of the measurement VM's port
};

struct WorldResult {
  experiments::ExperimentHarness::Calibration cal;
  std::int64_t t0_ns = 0; ///< end of calibration
  std::uint64_t events_executed = 0; ///< construction through finalize
  sim::FfStats ff_stats; ///< all-zero with ff off
  faults::InjectorStats injector_stats;
  std::vector<faults::InjectionEvent> events; ///< the injector's, for schedule extraction
  std::size_t exploits_attempted = 0;         ///< kernel_exploit attacks that fired
  std::size_t exploits_rooted = 0;
  std::uint64_t pcap_frames = 0;

  // With oracles.
  std::string summary; ///< InvariantSuite::summary()
  std::vector<Violation> violations;
  /// Per-attack oracle verdicts (empty without attacks).
  std::vector<AttackExclusionInvariant::Verdict> attack_verdicts;

  // With the probe.
  util::TimeSeries series;
  experiments::EventLog log;
  std::uint64_t tx_timeouts = 0;
  std::uint64_t deadline_misses = 0;
  double gm_disagreement_ns = 0;
  obs::MetricsSnapshot metrics;
};

/// Run one world. Throws whatever construction, bring-up (no convergence
/// within 240 s) or a later phase throws.
WorldResult run_world(const WorldSpec& spec);

} // namespace tsn::check
