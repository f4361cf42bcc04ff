// Fault injection tool (paper section III-C).
//
// Mirrors the python tool the authors ran in each ECD's service VM:
//   * periodic sequential shutdowns of the GM-hosting VMs, rotating over
//     the ECDs (one GM failure per gm_kill_period);
//   * random shutdowns of redundant (non-GM) clock synchronization VMs,
//     rate-bounded per node;
//   * never both VMs of one node at once (that would violate the
//     fail-silent fault hypothesis);
//   * each killed VM reboots after a configurable downtime and rejoins
//     warm (FTA phase).
//
// Beyond the paper's tool, the injector can also execute a scripted
// ReplaySchedule: an explicit list of (time, ecd, vm, downtime) kills.
// That is how the campaign fuzzer replays and delta-debugs a failing
// fault sequence, and -- with `raw` set -- how the invariant tests
// deliberately violate the fault hypothesis to prove the oracles fire.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "hv/ecd.hpp"
#include "sim/partition.hpp"
#include "sim/persist.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace tsn::faults {

struct InjectorConfig {
  /// One GM shutdown per this period, rotating across ECDs. 30 min yields
  /// the paper's 48 GM failures in 24 h.
  std::int64_t gm_kill_period_ns = 1'800'000'000'000LL;
  std::int64_t gm_downtime_ns = 60'000'000'000LL;
  /// Mean random shutdowns of each redundant VM per hour (rate-bounded by
  /// min_gap). ~0.65/h over 3 targeted nodes gives the paper's ~46
  /// non-GM failures in 24 h.
  double standby_kills_per_hour = 0.65;
  std::int64_t standby_min_gap_ns = 300'000'000'000LL; // >= 5 min apart (paper max 12/h)
  std::int64_t standby_downtime_ns = 60'000'000'000LL;
};

struct InjectionEvent {
  std::int64_t at_ns = 0;
  std::string vm;
  bool was_gm = false;   ///< the killed VM hosts a grandmaster
  bool is_reboot = false;
  std::size_t ecd_idx = 0; ///< index into the injector's ECD vector
  std::size_t vm_idx = 0;  ///< VM index within that ECD
  std::int64_t downtime_ns = 0; ///< scheduled downtime (kill events only)
};

struct InjectorStats {
  std::uint64_t total_kills = 0;
  std::uint64_t gm_kills = 0;
  std::uint64_t standby_kills = 0;
  std::uint64_t skipped_fault_hypothesis = 0; ///< peer already down
  /// Reboots that actually executed. A kill always schedules exactly one
  /// reboot, so total_kills == reboots + pending_reboots at all times --
  /// the conservation identity the invariant oracle checks. Reboots whose
  /// fire time lies beyond the end of the run simply stay pending instead
  /// of silently vanishing from the accounting.
  std::uint64_t reboots = 0;
  std::uint64_t pending_reboots = 0; ///< kills whose reboot has not fired yet
};

/// One scripted fail-silent fault: shut VM `vm` of ECD `ecd` down at
/// `at_ns` and boot it again `downtime_ns` later.
struct ScheduledFault {
  std::int64_t at_ns = 0;
  std::size_t ecd = 0;
  std::size_t vm = 0;
  std::int64_t downtime_ns = 60'000'000'000LL;
};

/// A deterministic, self-contained fault schedule (fuzz replay files,
/// shrinker candidates, synthetic invariant-violation tests).
struct ReplaySchedule {
  std::vector<ScheduledFault> faults;
  /// Raw mode bypasses the fail-silent fault-hypothesis guard (and the
  /// spare list), so a schedule can deliberately take both VMs of a node
  /// down at once. Only the invariant tests should want this.
  bool raw = false;

  bool empty() const { return faults.empty(); }
  std::size_t size() const { return faults.size(); }
};

class FaultInjector : public sim::Persistent {
 public:
  FaultInjector(sim::Simulation& sim, std::vector<hv::Ecd*> ecds, const InjectorConfig& cfg);

  /// Partitioned mode: schedule decisions, stats, the event log and all
  /// listeners stay in `home_region` (the constructor's Simulation must be
  /// that region's). Kill/reboot commands cross to the target ECD's region
  /// over control channels (+2 ms), where the liveness guards evaluate
  /// against local state; outcomes report back home (+1 ms). Call before
  /// start()/run(); `ecd_regions[i]` is ECD i's region.
  void set_partitioned(sim::PartitionRuntime* rt, std::vector<std::size_t> ecd_regions,
                       std::size_t home_region = 0);

  /// Exclude a VM from injection (the measurement VM in the paper's setup
  /// must stay alive to produce the precision series).
  void spare(const hv::ClockSyncVm* vm) { spared_.insert(vm); }

  /// Start the paper's randomized schedule.
  void start();

  /// Execute a scripted schedule instead (kills at exact times). The
  /// fault-hypothesis guard still applies unless `schedule.raw`; the
  /// spare list never applies (a replay must reproduce its recording).
  void run(const ReplaySchedule& schedule);

  const InjectorStats& stats() const { return stats_; }
  const std::vector<InjectionEvent>& events() const { return events_; }
  /// Observers of every kill and reboot, called in subscription order on
  /// the home region's shard.
  void add_listener(std::function<void(const InjectionEvent&)> fn) {
    listeners_.push_back(std::move(fn));
  }

  /// Earliest scheduled kill/reboot strictly after `after_ns`, INT64_MAX
  /// when none: the fast-forward barrier. Register it on the controller as
  ///   ff->add_barrier([&inj](std::int64_t t) { return inj.next_pending_ns(t); });
  /// so no analytic window ever crosses an injection edge.
  std::int64_t next_pending_ns(std::int64_t after_ns) const;

  // -- sim::Persistent ------------------------------------------------------
  // The injector joins the ff controller purely for event accounting: its
  // scheduled kills and reboots are standing one-shot events the barrier
  // keeps outside every window, so they need no park/advance. It carries
  // no restorable state -- the incremental shrinker re-creates a fresh
  // injector per probe (snapshots are taken before any injector runs).
  const char* persist_name() const override { return "fault-injector"; }
  void save_state(sim::StateWriter&) override {}
  void load_state(sim::StateReader&) override {}
  std::size_t live_events() const override { return pending_times_.size(); }

 private:
  bool peer_running(std::size_t ecd_idx, std::size_t vm_idx) const;
  void kill(std::size_t ecd_idx, std::size_t vm_idx, bool gm_schedule,
            std::int64_t downtime_ns, bool raw = false);
  /// Runs in the target ECD's region: guards, shutdown, reboot schedule.
  void execute_kill(std::size_t ecd_idx, std::size_t vm_idx, bool gm_schedule,
                    std::int64_t downtime_ns, bool raw);
  // Bookkeeping; always executes in the home region.
  void record_kill(const InjectionEvent& ev, bool gm_schedule);
  void record_reboot(const InjectionEvent& ev);
  void record_skip();
  void notify(const InjectionEvent& ev);
  void schedule_gm_round(std::uint64_t round);
  void schedule_standby(std::size_t ecd_idx);
  /// Schedule `fn` at `at_ns` on `on`, tracked in pending_times_ (serial
  /// mode only: partitioned regions would race on the multiset, and the
  /// ff/snapshot machinery that consumes it is serial-only anyway).
  void tracked_at(sim::Simulation& on, std::int64_t at_ns, std::function<void()> fn);

  sim::Simulation& sim_;
  std::vector<hv::Ecd*> ecds_;
  InjectorConfig cfg_;
  std::set<const hv::ClockSyncVm*> spared_;
  util::RngStream rng_;
  InjectorStats stats_;
  std::vector<InjectionEvent> events_;
  std::vector<std::function<void(const InjectionEvent&)>> listeners_;
  bool replay_mode_ = false;
  std::int64_t start_ns_ = 0; ///< when start() armed the randomized schedule
  /// Fire times of every scheduled kill/reboot still pending (serial mode).
  std::multiset<std::int64_t> pending_times_;
  sim::PartitionRuntime* rt_ = nullptr;
  std::vector<std::size_t> ecd_regions_;
  std::size_t home_region_ = 0;
};

} // namespace tsn::faults
