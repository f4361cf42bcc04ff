// ScenarioBuilder: the paper's testbed (Fig. 2), generalized.
//
// Four ECDs, each with an integrated 6-port TSN switch. The switches form
// a full mesh (every remote clock-sync VM is exactly three links from the
// measurement VM, matching section III-A2's hop counts). Each ECD hosts
// two clock synchronization VMs with passthrough NICs on switch ports P0
// (c^x_1, the GM of gPTP domain x) and P1 (c^x_2, the redundant VM).
// External port configuration pins one spanning tree per domain rooted at
// the domain's GM; a measurement VLAN with static multicast forwarding
// provides the symmetric 3-link paths for the precision probe.
//
// Beyond the paper's testbed, the builder scales to 64+ ECDs:
//   - `topology` picks the switch graph (mesh / ring / tree, see
//     experiments::Topology); spanning trees, the measurement VLAN and
//     the unicast FDB all derive from shortest-path routing, and the
//     default mesh reproduces the legacy 4-ECD wiring byte for byte.
//   - `num_domains` caps the gPTP domain count below one-per-ECD (the
//     FTA aggregates one source per domain; 64 domains on 64 ECDs would
//     be quadratic traffic for no extra fault tolerance).
//   - `partitions` switches execution to the conservative-parallel
//     runtime (sim::PartitionRuntime): one region per ECD, `partitions`
//     worker shards. 0 keeps the serial single-queue path, unchanged.
//     Partitioned results are byte-identical for every partitions >= 1
//     and worker schedule (regions and boundary tie-break keys are fixed
//     by the model, not the shard count); they intentionally differ from
//     the serial path's numerics, which keeps its legacy RNG streams.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "experiments/topology.hpp"
#include "gptp/bridge.hpp"
#include "hv/ecd.hpp"
#include "measure/path_delay.hpp"
#include "measure/precision_probe.hpp"
#include "net/frame_pool.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "obs/obs.hpp"
#include "sim/fast_forward.hpp"
#include "sim/partition.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"

namespace tsn::experiments {

struct ScenarioConfig {
  std::uint64_t seed = 1;
  std::size_t num_ecds = 4;

  // Scale & execution (see the header comment).
  TopologyKind topology = TopologyKind::kMesh;
  /// gPTP domains (and mutually-synchronizing GMs); 0 = one per ECD.
  std::size_t num_domains = 0;
  /// num_domains, or one per ECD up to the STSHMEM slot count; domain
  /// d's GM is VM 0 of ECD d.
  std::size_t domain_count() const;
  /// Partitioned execution: worker shards for the conservative-parallel
  /// runtime; 0 = legacy serial event loop.
  std::size_t partitions = 0;

  // Clock models.
  double max_drift_ppm = 5.0;        // the literature value behind Gamma
  double wander_sigma_ppm = 0.002;
  double nic_ts_jitter_ns = 8.0;     // i210-class HW timestamping
  double initial_phase_range_ns = 50'000.0; // random initial PHC offsets

  // Network calibration (targets the paper's measured dmin/dmax).
  std::int64_t host_link_delay_ns = 600;
  double host_link_jitter_ns = 15.0;
  std::int64_t mesh_link_delay_ns = 1'900;
  double mesh_link_jitter_ns = 40.0;
  std::int64_t switch_residence_ns = 1'800;
  double switch_residence_jitter_ns = 80.0;

  // Protocol.
  std::int64_t sync_interval_ns = 125'000'000;

  // Multi-domain aggregation. The validity threshold sits just below the
  // paper's bound Pi (~12.6 us): a -24 us attacker splits the clocks into
  // camps 12 us from the median, so honest nodes exclude the offenders --
  // and with two offenders lose their aggregation quorum, losing
  // synchronization exactly as in Fig. 3a.
  double validity_threshold_ns = 10'000.0;
  double startup_threshold_ns = 2'000.0;
  int startup_consecutive = 8;
  core::AggregationMethod aggregation = core::AggregationMethod::kFta;
  int fta_f = 1;

  // CLOCK_SYNCTIME maintenance.
  std::int64_t synctime_period_ns = 125'000'000;
  bool synctime_feed_forward = false;

  // Precision measurement.
  measure::ProbeConfig probe;
  std::size_t measurement_ecd = 0; ///< hosts the measurement VM c^m_2

  /// Kernel version per GM VM (c^x_1), indexed modulo its size (so the
  /// 4-entry default covers any num_ecds).
  std::vector<std::string> gm_kernels = {"4.19.1", "4.19.1", "4.19.1", "4.19.1"};

  /// The paper's architecture mutually synchronizes the GM clocks through
  /// the FTA (after the startup phase). Setting this false reproduces the
  /// Kyriakakis et al. baseline instead: GMs free-run unsynchronized,
  /// only client VMs aggregate (and skip the startup phase, which that
  /// design lacks); the client VM maintains each node's CLOCK_SYNCTIME.
  bool gm_mutual_sync = true;
};

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& cfg);

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Boot all ECDs (cold start at the current simulation time).
  void start();

  /// The single serial Simulation. Serial mode only: a partitioned world
  /// has one Simulation per region; use run_to()/now_ns() to drive it and
  /// ecd(x).sim() for a region's clock.
  sim::Simulation& sim();
  const ScenarioConfig& config() const { return cfg_; }

  // -- Execution facade (both modes) --------------------------------------

  bool partitioned() const { return runtime_ != nullptr; }
  sim::PartitionRuntime* runtime() { return runtime_.get(); }
  /// Advance the world to `t_ns` (events exactly at t_ns execute).
  void run_to(std::int64_t t_ns);
  /// Common time at stage boundaries (serial: the simulation clock).
  std::int64_t now_ns() const;
  /// Events executed so far, summed over regions in partitioned mode.
  std::uint64_t events_executed() const;
  /// The Simulation cross-region controllers (fault injector, attacker
  /// schedules) should live on: region 0's in partitioned mode, the
  /// serial simulation otherwise.
  sim::Simulation& control_sim();

  std::size_t num_ecds() const { return ecds_.size(); }
  const Topology& topology() const { return topo_; }
  hv::Ecd& ecd(std::size_t x) { return *ecds_.at(x); }
  hv::ClockSyncVm& vm(std::size_t ecd_idx, std::size_t vm_idx) {
    return ecds_.at(ecd_idx)->vm(vm_idx);
  }
  hv::ClockSyncVm& gm_vm(std::size_t ecd_idx) { return vm(ecd_idx, 0); }
  net::Switch& ecd_switch(std::size_t x) { return *switches_.at(x); }
  gptp::TimeAwareBridge& bridge(std::size_t x) { return *bridges_.at(x); }
  /// Host link of VM `vm_idx` of ECD `ecd_idx` (VM NIC is end A, the
  /// switch port is end B). Always region-local; the attack library's
  /// delay injection targets these.
  net::Link& host_link(std::size_t ecd_idx, std::size_t vm_idx) {
    return *links_.at(ecd_idx * 2 + vm_idx);
  }
  measure::PrecisionProbe& probe() { return *probe_; }
  measure::PathDelayMeter& path_meter() { return *path_meter_; }
  hv::ClockSyncVm& measurement_vm() { return vm(cfg_.measurement_ecd, 1); }

  std::vector<hv::Ecd*> ecd_ptrs();
  /// Names of the probe's destination VMs (for gamma computation).
  std::vector<std::string> probe_destinations() const;
  std::string measurement_vm_name() const;

  /// Switch port of sw_x facing sw_y (adjacent switches; the name is
  /// historical -- it resolves through the topology's port map).
  std::size_t mesh_port(std::size_t x, std::size_t y) const;

  /// True once every running VM's coordinator reached the FTA phase.
  bool all_in_fta_phase();

  /// Max |PHC_a - PHC_b| over all GM clocks right now (true-time
  /// instrumentation, used by tests and sanity checks).
  double gm_clock_disagreement_ns();

  /// The scenario-wide metrics registry / trace ring every component of
  /// this world reports into. Single-threaded by construction (one world =
  /// one replica = one thread in the sweep runner). Serial mode only:
  /// partitioned worlds keep one registry/ring per region (see
  /// region_trace) and merge deterministically in metrics_snapshot().
  obs::MetricsRegistry& metrics();
  obs::TraceRing& trace();
  /// Region r's trace ring (partitioned mode; serial r must be 0 and
  /// returns the single ring). Records within one ring are in that
  /// region's deterministic execution order.
  obs::TraceRing& region_trace(std::size_t r);
  std::size_t region_count() const { return runtime_ ? runtime_->region_count() : 1; }

  // -- Snapshot / fast-forward (serial mode only) --------------------------

  /// Every persistent component of this world, in boot order (ECDs, then
  /// switches, bridges, links, probe). The PathDelayMeter is deliberately
  /// absent: it is calibration infrastructure whose sweeps block quiescence
  /// structurally while they run, and its results feed analysis, not the
  /// clocks.
  std::vector<sim::Persistent*> persist_targets();

  /// Copy-out / copy-in of the whole world (sim::take_snapshot over
  /// persist_targets()). Both throw in partitioned mode and when some
  /// in-flight event is unaccounted for (components_quiescent() fails).
  sim::SimSnapshot snapshot();
  void restore(const sim::SimSnapshot& snap);

  /// Advance the world (plain event simulation, millisecond probing)
  /// until every live queue entry is accounted for by a persistent
  /// component -- i.e. until snapshot() would succeed. Returns false if
  /// no component-quiescent instant appears within `max_wait_ns` (e.g. a
  /// PathDelayMeter sweep is still running). Serial mode only.
  bool run_to_quiescence(std::int64_t max_wait_ns = 2'000'000'000);

  /// Arm the fast-forward analytic mode: run_to() then crosses quiescent
  /// windows analytically (DESIGN.md §12). Call after start(); harnesses
  /// with scheduled faults/attacks must add barriers on fast_forward()
  /// so windows never cross an injection edge.
  void enable_fast_forward(const sim::FfConfig& cfg = {});
  sim::FfController* fast_forward() { return ff_.get(); }

  /// Model-level quiescence: every running VM locked in FTA steady state,
  /// monitor view consistent with VM liveness, no armed attacks or
  /// corruptions anywhere, probe idle. (The structural queue check is the
  /// FfController's; this is the injected model predicate.)
  bool model_quiescent();

  /// Registry snapshot plus the event-queue totals harvested as gauges
  /// ("sim.events_executed", "sim.events_scheduled", ...). Partitioned:
  /// region registries merged in region order; only scheduling totals
  /// that are invariant under the horizon protocol are included (wheel
  /// placement stats depend on drain timing and are omitted).
  obs::MetricsSnapshot metrics_snapshot();

 private:
  void build_ecds();
  void build_network();
  void build_bridges();
  void configure_measurement_vlan();
  void configure_data_fdb();
  void build_probe();
  sim::Simulation& sim_for(std::size_t ecd_idx);
  obs::ObsContext obs_for(std::size_t ecd_idx);
  /// Captures the analytic stepper's entry state (ensemble membership,
  /// per-clock residuals vs the aggregate) from the live model at park
  /// time, before the controller's drain lets the clocks smear apart on
  /// stale frequency trims.
  void analytic_prepare(std::int64_t park_ns);
  /// Analytic clock advance over [from_ns, to_ns] for the ff controller:
  /// steps the ensemble at the sync cadence, pulling every locked
  /// aggregating PHC so it keeps its at-park offset from the aggregate.
  void analytic_advance(std::int64_t from_ns, std::int64_t to_ns);
  std::optional<double> ff_aggregate_rel(std::int64_t t_ref);

  ScenarioConfig cfg_;
  Topology topo_;
  sim::Simulation sim_;
  /// Frame-pool counters at construction. The (serial) pool is
  /// thread-local and outlives scenarios, so only the per-scenario deltas
  /// of the monotonic counters (acquired/released) are deterministic
  /// across sweep replicas; absolute totals, high_water and chunk counts
  /// carry history from whatever ran on this thread before.
  net::FramePool::Stats pool_base_;
  /// Partitioned mode: one private pool per region, installed as the
  /// executing thread's FramePool::local() around that region's events by
  /// the runtime's scope hook. Declared before runtime_ and the
  /// components so every FrameRef (event closures in the region queues,
  /// ETF slots in ports) drops its buffer before the pools die.
  std::vector<std::unique_ptr<net::FramePool>> pools_;
  std::unique_ptr<sim::PartitionRuntime> runtime_;
  obs::Observability obs_; ///< must outlive the components holding handles
  std::vector<std::unique_ptr<obs::Observability>> obs_regions_;
  std::vector<std::unique_ptr<hv::Ecd>> ecds_;
  std::vector<std::unique_ptr<net::Switch>> switches_;
  std::vector<std::unique_ptr<gptp::TimeAwareBridge>> bridges_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::unique_ptr<measure::PrecisionProbe> probe_;
  std::unique_ptr<measure::PathDelayMeter> path_meter_;
  std::unique_ptr<sim::FfController> ff_;
  sim::FfConfig ff_cfg_;
  struct FfPull {
    time::PhcClock* phc;
    double residual_ns; ///< clock - aggregate at window park
  };
  struct {
    std::vector<time::PhcClock*> ensemble;
    std::vector<FfPull> pulls;
    bool armed = false; ///< prepare ran and found an aggregation quorum
  } ff_pull_;
};

} // namespace tsn::experiments
