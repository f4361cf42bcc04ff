#include "experiments/scenario.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/ft_shmem.hpp"
#include "core/fta.hpp"
#include "util/log.hpp"
#include "util/round.hpp"
#include "util/str.hpp"

namespace tsn::experiments {
namespace {

constexpr std::uint16_t kMeasurementVlan = 100;

/// Diverse kernels for the redundant VMs (not attack targets).
const char* redundant_kernel(std::size_t ecd_idx) {
  static const char* kVersions[] = {"5.4.0", "5.10.0", "5.15.0", "6.1.0"};
  return kVersions[ecd_idx % 4];
}

/// Installs a region's frame pool as the build thread's local() for the
/// duration of that region's component construction, so any buffer a
/// component touches at build time lives in the right pool. No-op when
/// `pool` is null (serial mode).
class PoolScope {
 public:
  explicit PoolScope(net::FramePool* pool) : active_(pool != nullptr) {
    if (active_) net::FramePool::set_local(pool);
  }
  ~PoolScope() {
    if (active_) net::FramePool::set_local(nullptr);
  }
  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  bool active_;
};

} // namespace

Scenario::Scenario(const ScenarioConfig& cfg)
    : cfg_(cfg),
      topo_(Topology::build(cfg.topology, cfg.num_ecds)),
      sim_(cfg.seed),
      pool_base_(net::FramePool::local().stats()) {
  if (cfg_.num_ecds < 2 || cfg_.gm_kernels.empty()) {
    throw std::invalid_argument("Scenario: need >= 2 ECDs and GM kernels");
  }
  if (cfg_.domain_count() < 2 || cfg_.domain_count() > cfg_.num_ecds) {
    throw std::invalid_argument("Scenario: need 2 <= num_domains <= num_ecds");
  }
  if (cfg_.partitions > 0) {
    // One region per ECD, always: the decomposition is part of the model,
    // so results cannot depend on how many shards execute it.
    runtime_ = std::make_unique<sim::PartitionRuntime>(cfg_.num_ecds, cfg_.seed,
                                                       cfg_.partitions);
    for (std::size_t r = 0; r < cfg_.num_ecds; ++r) {
      pools_.push_back(std::make_unique<net::FramePool>());
      obs_regions_.push_back(std::make_unique<obs::Observability>());
    }
    runtime_->set_region_scope_hook([this](std::size_t r, bool enter) {
      net::FramePool::set_local(enter ? pools_[r].get() : nullptr);
    });
  }
  build_ecds();
  build_network();
  build_bridges();
  configure_measurement_vlan();
  configure_data_fdb();
  build_probe();
}

std::size_t ScenarioConfig::domain_count() const {
  // Default: one domain per ECD, capped at the STSHMEM slot count so that
  // scaled-up topologies (num_ecds > kMaxDomains) work without an explicit
  // num_domains=.
  return num_domains == 0 ? std::min(num_ecds, core::kMaxDomains) : num_domains;
}

sim::Simulation& Scenario::sim_for(std::size_t ecd_idx) {
  return runtime_ ? runtime_->region_sim(ecd_idx) : sim_;
}

obs::ObsContext Scenario::obs_for(std::size_t ecd_idx) {
  return runtime_ ? obs_regions_[ecd_idx]->context() : obs_.context();
}

sim::Simulation& Scenario::sim() {
  if (runtime_ != nullptr) {
    throw std::logic_error(
        "Scenario::sim() is serial-only; a partitioned world has one "
        "Simulation per region (run_to()/now_ns(), ecd(x).sim())");
  }
  return sim_;
}

obs::MetricsRegistry& Scenario::metrics() {
  if (runtime_ != nullptr) {
    throw std::logic_error("Scenario::metrics() is serial-only; partitioned "
                           "worlds merge region registries in metrics_snapshot()");
  }
  return obs_.metrics;
}

obs::TraceRing& Scenario::trace() {
  if (runtime_ != nullptr) {
    throw std::logic_error(
        "Scenario::trace() is serial-only; use region_trace(r)");
  }
  return obs_.trace;
}

obs::TraceRing& Scenario::region_trace(std::size_t r) {
  if (runtime_ == nullptr) {
    if (r != 0) throw std::out_of_range("region_trace: serial world has region 0 only");
    return obs_.trace;
  }
  return obs_regions_.at(r)->trace;
}

void Scenario::run_to(std::int64_t t_ns) {
  if (runtime_) {
    runtime_->run_until(sim::SimTime(t_ns));
  } else if (ff_) {
    ff_->run_to(sim::SimTime(t_ns));
  } else {
    sim_.run_until(sim::SimTime(t_ns));
  }
}

std::int64_t Scenario::now_ns() const {
  return runtime_ ? runtime_->now().ns() : sim_.now().ns();
}

std::uint64_t Scenario::events_executed() const {
  return runtime_ ? runtime_->events_executed() : sim_.events_executed();
}

sim::Simulation& Scenario::control_sim() {
  return runtime_ ? runtime_->region_sim(0) : sim_;
}

std::size_t Scenario::mesh_port(std::size_t x, std::size_t y) const {
  return topo_.port(x, y);
}

void Scenario::build_ecds() {
  time::PhcModel nic_phc;
  nic_phc.oscillator.max_drift_ppm = cfg_.max_drift_ppm;
  nic_phc.oscillator.wander_sigma_ppm = cfg_.wander_sigma_ppm;
  nic_phc.timestamp_jitter_ns = cfg_.nic_ts_jitter_ns;

  time::PhcModel tsc_model;
  tsc_model.oscillator.max_drift_ppm = 30.0; // TSCs are worse than TCXOs
  tsc_model.oscillator.wander_sigma_ppm = cfg_.wander_sigma_ppm;
  tsc_model.timestamp_jitter_ns = 0.0;

  util::RngStream phase_rng = sim_.make_rng("initial-phase");
  const std::size_t domains = cfg_.domain_count();

  for (std::size_t x = 0; x < cfg_.num_ecds; ++x) {
    PoolScope pool(runtime_ ? pools_[x].get() : nullptr);
    hv::EcdConfig ecfg;
    ecfg.name = util::format("ecd%zu", x + 1);
    ecfg.tsc = tsc_model;
    ecds_.push_back(std::make_unique<hv::Ecd>(sim_for(x), ecfg, obs_for(x)));

    for (std::size_t i = 0; i < 2; ++i) {
      hv::ClockSyncVmConfig vcfg;
      vcfg.name = util::format("c%zu%zu", x + 1, i + 1);
      vcfg.mac = net::MacAddress::from_u64(0x020000000000ULL | ((x + 1) << 8) | (i + 1));
      vcfg.phc = nic_phc;
      for (std::size_t d = 0; d < domains; ++d) {
        vcfg.domains.push_back(static_cast<std::uint8_t>(d + 1));
      }
      // ECD x's first VM is the GM of domain x+1 -- when that domain
      // exists (num_domains may cap the count below one per ECD; the
      // remaining first VMs are plain aggregating members).
      const bool is_gm_vm = (i == 0) && (x < domains);
      if (is_gm_vm) {
        vcfg.gm_domain = static_cast<std::uint8_t>(x + 1);
        vcfg.kernel_version = cfg_.gm_kernels[x % cfg_.gm_kernels.size()];
        vcfg.aggregate = cfg_.gm_mutual_sync; // baseline: GMs free-run
      } else {
        vcfg.kernel_version =
            (i == 0) ? cfg_.gm_kernels[x % cfg_.gm_kernels.size()] : redundant_kernel(x);
        // Baseline clients have no startup phase to lean on.
        vcfg.coordinator.skip_startup = !cfg_.gm_mutual_sync;
      }
      vcfg.coordinator.fta_f = cfg_.fta_f;
      vcfg.coordinator.sync_interval_ns = cfg_.sync_interval_ns;
      vcfg.coordinator.method = cfg_.aggregation;
      vcfg.coordinator.initial_domain = 1;
      vcfg.coordinator.startup_threshold_ns = cfg_.startup_threshold_ns;
      vcfg.coordinator.startup_consecutive = cfg_.startup_consecutive;
      vcfg.coordinator.validity.agreement_threshold_ns = cfg_.validity_threshold_ns;
      vcfg.coordinator.validity.freshness_window_ns = 4 * cfg_.sync_interval_ns;
      vcfg.instance.sync_interval_ns = cfg_.sync_interval_ns;
      vcfg.synctime.period_ns = cfg_.synctime_period_ns;
      vcfg.synctime.mode = cfg_.synctime_feed_forward ? hv::SyncTimeMode::kFeedForward
                                                       : hv::SyncTimeMode::kPiFeedback;

      auto& vm = ecds_.back()->add_clock_sync_vm(vcfg);
      // Random initial phase: the paper assumes a fault-free initial
      // synchronization; the startup phase has to earn it here.
      vm.nic().phc().step(static_cast<std::int64_t>(
          phase_rng.uniform(-cfg_.initial_phase_range_ns, cfg_.initial_phase_range_ns)));
    }
  }
}

void Scenario::build_network() {
  net::SwitchConfig scfg;
  // Ports 0-1 host the two VMs; 2.. face the neighbor switches. The
  // paper's 4-ECD testbed uses the integrated 6-port switch; a mesh of N
  // needs num_ecds+1 ports (the PR-5 fuzz constraint), sparse topologies
  // need 2 + degree.
  scfg.port_count = std::max<std::size_t>(6, topo_.min_port_count());
  scfg.residence_base_ns = cfg_.switch_residence_ns;
  scfg.residence_jitter_ns = cfg_.switch_residence_jitter_ns;
  scfg.drop_unknown_unicast = true; // the mesh has loops: no flooding
  scfg.phc.oscillator.max_drift_ppm = cfg_.max_drift_ppm;
  scfg.phc.oscillator.wander_sigma_ppm = cfg_.wander_sigma_ppm;
  scfg.phc.timestamp_jitter_ns = cfg_.nic_ts_jitter_ns;

  for (std::size_t x = 0; x < cfg_.num_ecds; ++x) {
    PoolScope pool(runtime_ ? pools_[x].get() : nullptr);
    switches_.push_back(
        std::make_unique<net::Switch>(sim_for(x), scfg, util::format("sw%zu", x + 1)));
  }

  net::LinkConfig host_link;
  host_link.a_to_b = {cfg_.host_link_delay_ns, cfg_.host_link_jitter_ns};
  host_link.b_to_a = {cfg_.host_link_delay_ns, cfg_.host_link_jitter_ns};

  // Host links: VM i of ECD x <-> sw_x port i. Always region-local.
  for (std::size_t x = 0; x < cfg_.num_ecds; ++x) {
    for (std::size_t i = 0; i < 2; ++i) {
      links_.push_back(std::make_unique<net::Link>(
          sim_for(x), vm(x, i).nic().port(), switches_[x]->port(i), host_link,
          util::format("c%zu%zu-sw%zu", x + 1, i + 1, x + 1)));
    }
  }

  // Switch-to-switch links in ascending edge order (slight per-link base
  // asymmetry emulates cable-length variation and feeds the reading error
  // E). The draw order over edges is fixed by the topology, so the mesh
  // reproduces the legacy wiring byte for byte; in partitioned mode these
  // are the boundary links whose propagation floor bounds the lookahead.
  util::RngStream asym_rng = sim_.make_rng("link-asymmetry");
  for (const TopologyEdge& e : topo_.edges()) {
    net::LinkConfig mesh;
    const auto base = cfg_.mesh_link_delay_ns;
    mesh.a_to_b = {base + asym_rng.uniform_int(-100, 100), cfg_.mesh_link_jitter_ns};
    mesh.b_to_a = {base + asym_rng.uniform_int(-100, 100), cfg_.mesh_link_jitter_ns};
    const std::string name = util::format("sw%zu-sw%zu", e.a + 1, e.b + 1);
    net::Port& port_a = switches_[e.a]->port(topo_.port(e.a, e.b));
    net::Port& port_b = switches_[e.b]->port(topo_.port(e.b, e.a));
    if (runtime_) {
      links_.push_back(
          net::Link::make_boundary(*runtime_, e.a, port_a, e.b, port_b, mesh, name));
    } else {
      links_.push_back(std::make_unique<net::Link>(sim_, port_a, port_b, mesh, name));
    }
  }
}

void Scenario::build_bridges() {
  const std::size_t domains = cfg_.domain_count();
  for (std::size_t x = 0; x < cfg_.num_ecds; ++x) {
    PoolScope pool(runtime_ ? pools_[x].get() : nullptr);
    gptp::BridgeConfig bcfg;
    for (std::size_t d = 0; d < domains; ++d) {
      // Domain d+1 is rooted at ECD d's switch; Sync flows down the
      // shortest-path tree toward every other switch.
      gptp::BridgeDomainConfig dom;
      dom.domain = static_cast<std::uint8_t>(d + 1);
      if (x == d) {
        // This switch hosts the domain's GM on port 0.
        dom.slave_port = 0;
        dom.master_ports.insert(1);
      } else {
        // Toward the root; local hosts are leaves.
        dom.slave_port = topo_.port(x, topo_.next_hop(x, d));
        dom.master_ports = {0, 1};
      }
      // Downstream: neighbors that reach the root through this switch.
      for (std::size_t child : topo_.tree_children(x, d)) {
        dom.master_ports.insert(topo_.port(x, child));
      }
      bcfg.domains.push_back(dom);
    }
    bridges_.push_back(std::make_unique<gptp::TimeAwareBridge>(sim_for(x), *switches_[x], bcfg,
                                                               util::format("br%zu", x + 1)));
  }
}

void Scenario::configure_measurement_vlan() {
  const std::size_t m = cfg_.measurement_ecd;
  const net::MacAddress group = measure::measurement_group();
  // The measurement VLAN spans the shortest-path tree rooted at the
  // measurement ECD (for the mesh: the root fans out directly to every
  // leaf, the legacy shape).
  switches_[m]->add_vlan_member(kMeasurementVlan, 1); // sender's host port
  for (std::size_t child : topo_.tree_children(m, m)) {
    const std::size_t p = topo_.port(m, child);
    switches_[m]->add_vlan_member(kMeasurementVlan, p);
    switches_[m]->add_fdb_entry(kMeasurementVlan, group, p);
  }
  for (std::size_t y = 0; y < cfg_.num_ecds; ++y) {
    if (y == m) continue;
    // Toward-root port, both host ports, and any downstream subtree.
    switches_[y]->add_vlan_member(kMeasurementVlan, topo_.port(y, topo_.next_hop(y, m)));
    switches_[y]->add_vlan_member(kMeasurementVlan, 0);
    switches_[y]->add_vlan_member(kMeasurementVlan, 1);
    switches_[y]->add_fdb_entry(kMeasurementVlan, group, 0);
    switches_[y]->add_fdb_entry(kMeasurementVlan, group, 1);
    for (std::size_t child : topo_.tree_children(y, m)) {
      const std::size_t p = topo_.port(y, child);
      switches_[y]->add_vlan_member(kMeasurementVlan, p);
      switches_[y]->add_fdb_entry(kMeasurementVlan, group, p);
    }
  }
}

void Scenario::configure_data_fdb() {
  // Static unicast forwarding for every VM MAC on the default VLAN:
  // next hop along the shortest path towards the destination ECD (the
  // direct mesh hop in the legacy shape), host port locally.
  for (std::size_t x = 0; x < cfg_.num_ecds; ++x) {
    for (std::size_t y = 0; y < cfg_.num_ecds; ++y) {
      for (std::size_t i = 0; i < 2; ++i) {
        const net::MacAddress mac = vm(y, i).nic().mac();
        const std::size_t port =
            (y == x) ? i : topo_.port(x, topo_.next_hop(x, y));
        switches_[x]->add_fdb_entry(0, mac, port);
      }
    }
  }
}

void Scenario::build_probe() {
  const std::size_t m = cfg_.measurement_ecd;
  {
    PoolScope pool(runtime_ ? pools_[m].get() : nullptr);
    probe_ = std::make_unique<measure::PrecisionProbe>(sim_for(m), measurement_vm().nic(),
                                                       cfg_.probe, "probe");
  }
  if (runtime_) probe_->set_partitioned(runtime_.get(), m);
  for (std::size_t x = 0; x < cfg_.num_ecds; ++x) {
    if (x == m) continue; // excludes c^m_1 (asymmetric path) and the sender
    for (std::size_t i = 0; i < 2; ++i) {
      probe_->add_receiver({vm(x, i).name(), &vm(x, i).nic(), &vm(x, i), ecds_[x].get()}, x);
    }
  }

  {
    PoolScope pool(runtime_ ? pools_[0].get() : nullptr);
    path_meter_ = std::make_unique<measure::PathDelayMeter>(sim_for(0), 0, "path-meter");
  }
  if (runtime_) path_meter_->set_partitioned(runtime_.get(), 0);
  for (std::size_t x = 0; x < cfg_.num_ecds; ++x) {
    for (std::size_t i = 0; i < 2; ++i) {
      path_meter_->add_node(vm(x, i).name(), &vm(x, i).nic(),
                            runtime_ ? &runtime_->region_sim(x) : nullptr, x);
    }
  }
}

std::vector<std::string> Scenario::probe_destinations() const {
  std::vector<std::string> out;
  for (std::size_t x = 0; x < cfg_.num_ecds; ++x) {
    if (x == cfg_.measurement_ecd) continue;
    for (std::size_t i = 0; i < 2; ++i) {
      out.push_back(util::format("c%zu%zu", x + 1, i + 1));
    }
  }
  return out;
}

std::string Scenario::measurement_vm_name() const {
  return util::format("c%zu2", cfg_.measurement_ecd + 1);
}

std::vector<hv::Ecd*> Scenario::ecd_ptrs() {
  std::vector<hv::Ecd*> out;
  for (auto& e : ecds_) out.push_back(e.get());
  return out;
}

void Scenario::start() {
  for (std::size_t x = 0; x < ecds_.size(); ++x) {
    PoolScope pool(runtime_ ? pools_[x].get() : nullptr);
    ecds_[x]->start();
  }
  for (std::size_t x = 0; x < bridges_.size(); ++x) {
    PoolScope pool(runtime_ ? pools_[x].get() : nullptr);
    bridges_[x]->start();
  }
  if (!cfg_.gm_mutual_sync) {
    // Baseline ("clients only"): the aggregating client VM, not the
    // free-running GM, maintains each node's CLOCK_SYNCTIME.
    for (auto& ecd : ecds_) {
      ecd->st_shmem().set_active_vm(1);
      ecd->vm(0).set_active(false);
      ecd->vm(1).set_active(true);
    }
  }
}

bool Scenario::all_in_fta_phase() {
  for (auto& ecd : ecds_) {
    for (std::size_t i = 0; i < ecd->vm_count(); ++i) {
      auto& v = ecd->vm(i);
      if (!v.running()) continue;
      if (v.coordinator() == nullptr) {
        if (!cfg_.gm_mutual_sync) continue; // baseline GMs never aggregate
        return false;
      }
      if (v.coordinator()->phase() != core::SyncPhase::kFta) return false;
    }
  }
  return true;
}

obs::MetricsSnapshot Scenario::metrics_snapshot() {
  if (runtime_ == nullptr) {
    const auto& q = sim_.queue().stats();
    obs_.metrics.gauge("sim.events_executed").set(static_cast<double>(sim_.events_executed()));
    obs_.metrics.gauge("sim.events_scheduled").set(static_cast<double>(q.scheduled));
    obs_.metrics.gauge("sim.events_posted").set(static_cast<double>(q.posted));
    obs_.metrics.gauge("sim.events_cancelled").set(static_cast<double>(q.cancelled));
    obs_.metrics.gauge("sim.wheel_inserts").set(static_cast<double>(q.wheel_inserts));
    obs_.metrics.gauge("sim.staged_inserts").set(static_cast<double>(q.staged_inserts));
    obs_.metrics.gauge("sim.heap_spills").set(static_cast<double>(q.heap_spills));
    obs_.metrics.gauge("sim.cascades").set(static_cast<double>(q.cascades));
    const auto& p = net::FramePool::local().stats();
    const std::uint64_t acquired = p.acquired - pool_base_.acquired;
    const std::uint64_t released = p.released - pool_base_.released;
    obs_.metrics.gauge("net.frames_acquired").set(static_cast<double>(acquired));
    obs_.metrics.gauge("net.frames_released").set(static_cast<double>(released));
    obs_.metrics.gauge("net.frames_in_flight").set(static_cast<double>(acquired - released));
    obs_.metrics.gauge("trace.records_total").set(static_cast<double>(obs_.trace.total()));
    obs_.metrics.gauge("trace.records_dropped").set(static_cast<double>(obs_.trace.dropped()));
    return obs_.metrics.snapshot();
  }

  // Partitioned: fold the per-region registries in region order (the
  // fold, like the sweep runner's, is deterministic whatever thread count
  // executed the regions), then overlay scheduling totals. Only totals
  // that the horizon protocol cannot perturb are harvested: posted/
  // scheduled/cancelled/executed counts are properties of the event set,
  // while wheel-placement stats (staged vs wheel vs heap, cascades)
  // depend on when a mailbox was drained relative to the queue cursor --
  // deterministic results, nondeterministic bookkeeping.
  std::vector<obs::MetricsSnapshot> parts;
  parts.reserve(obs_regions_.size());
  for (auto& o : obs_regions_) parts.push_back(o->metrics.snapshot());
  obs::MetricsSnapshot s = obs::merge_snapshots(parts);
  std::uint64_t scheduled = 0, posted = 0, cancelled = 0;
  std::uint64_t acquired = 0, released = 0, trace_total = 0, trace_dropped = 0;
  for (std::size_t r = 0; r < runtime_->region_count(); ++r) {
    const auto& q = runtime_->region_sim(r).queue().stats();
    scheduled += q.scheduled;
    posted += q.posted;
    cancelled += q.cancelled;
    acquired += pools_[r]->stats().acquired;
    released += pools_[r]->stats().released;
    trace_total += obs_regions_[r]->trace.total();
    trace_dropped += obs_regions_[r]->trace.dropped();
  }
  s.gauges["sim.events_executed"] = static_cast<double>(runtime_->events_executed());
  s.gauges["sim.events_scheduled"] = static_cast<double>(scheduled);
  s.gauges["sim.events_posted"] = static_cast<double>(posted);
  s.gauges["sim.events_cancelled"] = static_cast<double>(cancelled);
  s.gauges["net.frames_acquired"] = static_cast<double>(acquired);
  s.gauges["net.frames_released"] = static_cast<double>(released);
  s.gauges["net.frames_in_flight"] = static_cast<double>(acquired - released);
  s.gauges["trace.records_total"] = static_cast<double>(trace_total);
  s.gauges["trace.records_dropped"] = static_cast<double>(trace_dropped);
  return s;
}

std::vector<sim::Persistent*> Scenario::persist_targets() {
  std::vector<sim::Persistent*> out;
  out.reserve(ecds_.size() + switches_.size() + bridges_.size() + links_.size() + 1);
  for (auto& e : ecds_) out.push_back(e.get());
  for (auto& s : switches_) out.push_back(s.get());
  for (auto& b : bridges_) out.push_back(b.get());
  for (auto& l : links_) out.push_back(l.get());
  out.push_back(probe_.get());
  return out;
}

sim::SimSnapshot Scenario::snapshot() {
  if (runtime_) {
    throw std::logic_error("Scenario::snapshot() is serial-only; a partitioned "
                           "world has one queue per region");
  }
  return sim::take_snapshot(sim_, persist_targets());
}

void Scenario::restore(const sim::SimSnapshot& snap) {
  if (runtime_) throw std::logic_error("Scenario::restore() is serial-only");
  sim::restore_snapshot(sim_, persist_targets(), snap);
}

bool Scenario::run_to_quiescence(std::int64_t max_wait_ns) {
  if (runtime_) throw std::logic_error("Scenario::run_to_quiescence() is serial-only");
  const std::vector<sim::Persistent*> targets = persist_targets();
  // Sync/pdelay transients (frames in flight, bridge relays, coordinator
  // evaluations) retire within a few milliseconds of each 125 ms volley,
  // so millisecond probing lands on a clean instant almost immediately.
  constexpr std::int64_t kStepNs = 1'000'000;
  const std::int64_t deadline = sim_.now().ns() + max_wait_ns;
  while (!sim::components_quiescent(sim_, targets)) {
    if (sim_.now().ns() >= deadline) return false;
    sim_.run_until(sim::SimTime{sim_.now().ns() + kStepNs});
  }
  return true;
}

void Scenario::enable_fast_forward(const sim::FfConfig& fcfg) {
  if (runtime_) {
    throw std::logic_error("Scenario::enable_fast_forward() is serial-only; the "
                           "partitioned runtime has its own horizon protocol");
  }
  if (ff_) throw std::logic_error("fast-forward already enabled");
  ff_cfg_ = fcfg;
  ff_ = std::make_unique<sim::FfController>(sim_, fcfg);
  for (sim::Persistent* p : persist_targets()) ff_->add_participant(p);
  ff_->set_model_quiescent([this] { return model_quiescent(); });
  ff_->set_analytic_prepare([this](std::int64_t park) { analytic_prepare(park); });
  ff_->set_analytic_advance(
      [this](std::int64_t from, std::int64_t to) { analytic_advance(from, to); });
}

bool Scenario::model_quiescent() {
  for (std::size_t x = 0; x < ecds_.size(); ++x) {
    hv::Ecd& e = *ecds_[x];
    for (std::size_t i = 0; i < e.vm_count(); ++i) {
      hv::ClockSyncVm& v = e.vm(i);
      // The monitor's view must agree with the VM's liveness: a
      // just-killed VM is structurally quiescent (zero standing events)
      // before its heartbeat goes stale, and opening a window there would
      // postpone the takeover by the whole window span. Likewise a
      // recovering VM whose comeback the monitor has not processed yet.
      if (v.running() == e.monitor().detected_failed(i)) return false;
      if (v.compromised()) return false;
      if (!v.running()) continue; // steady "down", monitor agrees
      if (e.monitor().voted_out(i)) return false;
      if (hv::SyncTimeUpdater* u = v.updater()) {
        if (!u->running()) return false;
        if (u->param_corruption() != 0 || u->rate_corruption() != 0.0) return false;
      }
      if (core::MultiDomainCoordinator* c = v.coordinator()) {
        if (c->phase() != core::SyncPhase::kFta) return false;
        if (c->servo_state() != gptp::PiServo::State::kLocked) return false;
      }
      // coordinator == nullptr: a baseline free-running GM -- trivially
      // steady (nothing disciplines its clock).
    }
  }
  for (auto& b : bridges_) {
    if (b->attack_armed()) return false;
  }
  for (auto& l : links_) {
    if (l->attack_armed()) return false;
  }
  return probe_->idle();
}

std::optional<double> Scenario::ff_aggregate_rel(std::int64_t t_ref) {
  std::vector<double> readings;
  readings.reserve(ff_pull_.ensemble.size());
  for (time::PhcClock* phc : ff_pull_.ensemble) {
    readings.push_back(static_cast<double>(phc->read() - t_ref));
  }
  return core::aggregate(readings, cfg_.aggregation, cfg_.fta_f);
}

void Scenario::analytic_prepare(std::int64_t park_ns) {
  // Capture the stepper's entry state from the LIVE model, before the
  // controller parks the servos and drains the queue. The 2.5 s drain
  // runs every clock open-loop on its last frequency trim -- after a long
  // window those trims are stale by the oscillator wander the window
  // accumulated, so the drain can smear the ensemble apart by trim-error
  // x drain-span. Anchoring the residuals here means the first analytic
  // step pulls that smear back out, exactly as the live servos would
  // have; capturing after the drain instead locks it into the window and
  // ratchets the spread at every boundary until the validity layer's
  // disagreement filter evicts the whole ensemble (no quorum, servos
  // frozen, clocks diverging on stale trims -- unrecoverable).
  ff_pull_.ensemble.clear();
  ff_pull_.pulls.clear();
  ff_pull_.armed = false;

  // Ensemble members: the running domain GMs (domain d+1 is rooted at
  // vm(d, 0)); a down GM's domain is exactly what the validity layer
  // would flag stale under event simulation.
  for (std::size_t d = 0; d < cfg_.domain_count(); ++d) {
    hv::ClockSyncVm& v = gm_vm(d);
    if (v.running()) ff_pull_.ensemble.push_back(&v.nic().phc());
  }

  const std::optional<double> entry_agg = ff_aggregate_rel(park_ns);
  if (!entry_agg) return;
  // entry_agg empty = no aggregation quorum: every clock holds its
  // frequency across the window, matching the event-simulated
  // "aggregation_skipped_no_quorum" behaviour.

  // Pulled clocks: every running VM that aggregates (has a coordinator);
  // model_quiescent() already guaranteed their servos are locked.
  for (auto& ecd : ecds_) {
    for (std::size_t i = 0; i < ecd->vm_count(); ++i) {
      hv::ClockSyncVm& v = ecd->vm(i);
      if (!v.running() || v.coordinator() == nullptr) continue;
      time::PhcClock& phc = v.nic().phc();
      ff_pull_.pulls.push_back(
          {&phc, static_cast<double>(phc.read() - park_ns) - *entry_agg});
    }
  }
  ff_pull_.armed = true;
}

void Scenario::analytic_advance(std::int64_t from_ns, std::int64_t to_ns) {
  // One analytic "FTA round" per stride (never finer than the sync
  // interval, capped at cfg.max_steps): at each step the ensemble
  // aggregate E_k is recomputed from the GM PHCs -- which keep wandering
  // through their coarse O(1) oscillator integration, statistically as
  // they would under event simulation -- and every locked aggregating
  // clock is stepped so it keeps the offset from the aggregate it had at
  // park (the locked servo's fixed point; see analytic_prepare). All
  // arithmetic on clock readings is relative to the step time t_k:
  // absolute nanoseconds at week scale (~6e14) carry 0.125 ns of double
  // ulp, the relative offsets are microseconds.
  const std::int64_t span = to_ns - from_ns;
  const std::int64_t ival =
      std::max<std::int64_t>(std::max<std::int64_t>(1, cfg_.sync_interval_ns),
                             ff_cfg_.analytic_step_ns);
  const std::int64_t want = span / ival;
  const std::int64_t n =
      std::max<std::int64_t>(1, std::min<std::int64_t>(ff_cfg_.max_steps, want));

  // Direct callers (tests driving the stepper without the controller):
  // anchor the residuals at from_ns, drain smear included.
  if (!ff_pull_.armed && ff_pull_.ensemble.empty()) analytic_prepare(from_ns);

  const bool pull = ff_pull_.armed && !ff_pull_.pulls.empty();
  for (std::int64_t k = 1; k <= n; ++k) {
    const std::int64_t t_k =
        from_ns + static_cast<std::int64_t>(
                      static_cast<__int128>(span) * k / n);
    sim_.advance_to(sim::SimTime{t_k});
    if (!pull) continue;
    for (time::PhcClock* phc : ff_pull_.ensemble) phc->catch_up_coarse();
    for (const FfPull& p : ff_pull_.pulls) p.phc->catch_up_coarse();
    const std::optional<double> agg = ff_aggregate_rel(t_k);
    if (!agg) continue; // quorum lost mid-window: hold frequency
    for (const FfPull& p : ff_pull_.pulls) {
      const double cur = static_cast<double>(p.phc->read() - t_k);
      const double tgt = *agg + p.residual_ns;
      p.phc->step(util::round_i64(tgt - cur));
    }
  }
  // Flush every clock in the world through the window analytically:
  // clocks the stepper never touched (TSCs, switch PHCs, down VMs) would
  // otherwise pay the full quantum-by-quantum wander integration lazily
  // at their first post-window read -- 360k RNG draws each after an hour.
  for (auto& ecd : ecds_) {
    ecd->tsc().catch_up_coarse();
    for (std::size_t i = 0; i < ecd->vm_count(); ++i)
      ecd->vm(i).nic().phc().catch_up_coarse();
  }
  for (auto& sw : switches_) sw->phc().catch_up_coarse();
  ff_pull_.ensemble.clear();
  ff_pull_.pulls.clear();
  ff_pull_.armed = false;
}

double Scenario::gm_clock_disagreement_ns() {
  std::vector<std::int64_t> readings;
  for (auto& ecd : ecds_) {
    if (ecd->vm(0).running()) readings.push_back(ecd->vm(0).nic().phc().read());
  }
  if (readings.size() < 2) return 0.0;
  const auto [lo, hi] = std::minmax_element(readings.begin(), readings.end());
  return static_cast<double>(*hi - *lo);
}

} // namespace tsn::experiments
