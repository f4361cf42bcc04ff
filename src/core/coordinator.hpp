// MultiDomainCoordinator: the paper's extension of ptp4l.
//
// The M ptp4l instances of a clock synchronization VM each deliver their
// grandmaster offset here. The coordinator stores it into FTSHMEM and then
// executes the paper's aggregation protocol:
//
//   * Startup phase: all nodes slave to the initial domain's GM until every
//     domain's GM offset stays below a configurable threshold (the paper
//     assumes a fault-free initial synchronization, citing [17], [18]).
//   * FTA phase: the first instance whose gate check
//     adjust_last + sync_interval <= now succeeds sorts the M stored
//     offsets, drops stale/disagreeing GMs (validity flags), computes the
//     fault-tolerant average and passes it to the single shared PI servo,
//     which programs the NIC PHC's frequency.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/ft_shmem.hpp"
#include "core/fta.hpp"
#include "core/validity.hpp"
#include "gptp/instance.hpp"
#include "gptp/servo.hpp"
#include "obs/obs.hpp"
#include "sim/simulation.hpp"
#include "tsn_time/phc_clock.hpp"

namespace tsn::core {

struct CoordinatorConfig {
  /// gPTP domain numbers in slot order (slot i holds domains[i]).
  std::vector<std::uint8_t> domains;
  /// Tolerated Byzantine faults for the FTA.
  int fta_f = 1;
  std::int64_t sync_interval_ns = 125'000'000;
  AggregationMethod method = AggregationMethod::kFta;

  /// Startup: domain whose GM everyone initially slaves to.
  std::uint8_t initial_domain = 1;
  /// Offsets must stay below this to leave the startup phase...
  double startup_threshold_ns = 2'000.0;
  /// ...for this many consecutive initial-domain sync intervals.
  int startup_consecutive = 8;
  /// Start directly in FTA phase (warm standby taking over, tests).
  bool skip_startup = false;

  ValidityConfig validity;
  gptp::PiServoConfig servo;
};

/// Snapshot of the coordinator's registry-backed counters; kept as a
/// plain struct so existing `stats().field` call sites read unchanged.
struct CoordinatorStats {
  std::uint64_t samples_stored = 0;
  std::uint64_t aggregations = 0;
  std::uint64_t aggregation_skipped_no_quorum = 0;
  std::uint64_t startup_adjustments = 0;
  std::uint64_t gms_excluded_stale = 0;
  std::uint64_t gms_excluded_disagreeing = 0;
  std::uint64_t clock_steps = 0;
};

class MultiDomainCoordinator {
 public:
  MultiDomainCoordinator(sim::Simulation& sim, time::PhcClock& phc, FtShmem& shmem,
                         const CoordinatorConfig& cfg, const std::string& name,
                         obs::ObsContext obs = {});

  MultiDomainCoordinator(const MultiDomainCoordinator&) = delete;
  MultiDomainCoordinator& operator=(const MultiDomainCoordinator&) = delete;

  /// Entry point wired to each PtpInstance's offset callback.
  void on_offset(const gptp::MasterOffsetSample& sample);

  SyncPhase phase() const { return shmem_.phase(); }
  /// Shared-servo discipline state (ff quiescence checks want kLocked).
  gptp::PiServo::State servo_state() const { return servo_.state(); }

  // -- Snapshot support (callback-driven: no standing events) --------------
  void save_state(sim::StateWriter& w) const;
  void load_state(sim::StateReader& r);
  /// Reads the live counters into a plain struct (by value: the backing
  /// store is the metrics registry, not a member struct).
  CoordinatorStats stats() const;
  FtShmem& shmem() { return shmem_; }

  /// Fired when the coordinator leaves the startup phase.
  std::function<void(SyncPhase)> on_phase_change;
  /// Fired after each FTA aggregation: (aggregated offset, clocks used).
  std::function<void(double offset_ns, int clocks_used)> on_aggregate;
  /// Fired when a GM's validity flag flips: (slot index, now valid).
  std::function<void(std::size_t, bool)> on_validity_change;

 private:
  /// Slot of `domain`, or cfg_.domains.size() when it is not aggregated.
  /// A scan of at most kMaxDomains entries, run for every offset sample.
  std::size_t find_slot(std::uint8_t domain) const;
  /// find_slot() that throws std::out_of_range for a domain not aggregated.
  std::size_t slot_of(std::uint8_t domain) const;
  void startup_step(const gptp::MasterOffsetSample& sample);
  void fta_step(const gptp::MasterOffsetSample& sample);
  void apply_servo(double offset_ns, std::int64_t local_ts);
  void enter_fta_phase();
  void bind_metrics(obs::ObsContext obs);
  void trace(obs::TraceKind kind, std::uint32_t a, std::uint32_t mask,
             std::int64_t v0, std::int64_t v1) const;

  sim::Simulation& sim_;
  time::PhcClock& phc_;
  FtShmem& shmem_;
  CoordinatorConfig cfg_;
  std::string name_;
  gptp::PiServo servo_;
  int startup_ok_streak_ = 0;
  std::vector<bool> last_validity_;

  /// Owned fallback so stats() works when no shared registry is wired in
  /// (unit tests construct coordinators bare).
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::Counter* c_samples_stored_ = nullptr;
  obs::Counter* c_aggregations_ = nullptr;
  obs::Counter* c_skipped_no_quorum_ = nullptr;
  obs::Counter* c_startup_adjustments_ = nullptr;
  obs::Counter* c_excluded_stale_ = nullptr;
  obs::Counter* c_excluded_disagreeing_ = nullptr;
  obs::Counter* c_clock_steps_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  std::uint16_t trace_src_ = 0;
};

} // namespace tsn::core
