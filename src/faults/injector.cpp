#include "faults/injector.hpp"

#include <algorithm>
#include <limits>

#include "util/log.hpp"

namespace tsn::faults {

FaultInjector::FaultInjector(sim::Simulation& sim, std::vector<hv::Ecd*> ecds,
                             const InjectorConfig& cfg)
    : sim_(sim), ecds_(std::move(ecds)), cfg_(cfg), rng_(sim.make_rng("fault-injector")) {}

void FaultInjector::set_partitioned(sim::PartitionRuntime* rt,
                                    std::vector<std::size_t> ecd_regions,
                                    std::size_t home_region) {
  rt_ = rt;
  ecd_regions_ = std::move(ecd_regions);
  home_region_ = home_region;
  for (std::size_t r : ecd_regions_) {
    if (r == home_region_) continue;
    rt_->control_channel(home_region_, r); // kill commands out
    rt_->control_channel(r, home_region_); // outcome reports back
  }
}

std::int64_t FaultInjector::next_pending_ns(std::int64_t after_ns) const {
  const auto it = pending_times_.upper_bound(after_ns);
  return it == pending_times_.end() ? std::numeric_limits<std::int64_t>::max() : *it;
}

void FaultInjector::tracked_at(sim::Simulation& on, std::int64_t at_ns,
                               std::function<void()> fn) {
  if (rt_ != nullptr) {
    // Partitioned: regions would race on the multiset, and the serial-only
    // ff/snapshot machinery never reads it there.
    on.at(sim::SimTime(at_ns), [fn = std::move(fn)] { fn(); });
    return;
  }
  pending_times_.insert(at_ns);
  on.at(sim::SimTime(at_ns), [this, at_ns, fn = std::move(fn)] {
    pending_times_.erase(pending_times_.find(at_ns));
    fn();
  });
}

bool FaultInjector::peer_running(std::size_t ecd_idx, std::size_t vm_idx) const {
  hv::Ecd& ecd = *ecds_[ecd_idx];
  for (std::size_t j = 0; j < ecd.vm_count(); ++j) {
    if (j != vm_idx && ecd.vm(j).running()) return true;
  }
  return false;
}

void FaultInjector::notify(const InjectionEvent& ev) {
  events_.push_back(ev);
  for (auto& listener : listeners_) listener(ev);
}

void FaultInjector::kill(std::size_t ecd_idx, std::size_t vm_idx, bool gm_schedule,
                         std::int64_t downtime_ns, bool raw) {
  if (ecd_idx >= ecds_.size() || vm_idx >= ecds_[ecd_idx]->vm_count()) return;
  if (rt_ != nullptr && ecd_regions_[ecd_idx] != home_region_) {
    // Ship the command to the target's region; the liveness guards must
    // read that region's state, not a cross-thread snapshot.
    const sim::SimTime at(sim_.now().ns() + 2 * sim::kControlLookaheadNs);
    rt_->post_control(ecd_regions_[ecd_idx], at,
                      [this, ecd_idx, vm_idx, gm_schedule, downtime_ns, raw] {
                        execute_kill(ecd_idx, vm_idx, gm_schedule, downtime_ns, raw);
                      });
    return;
  }
  execute_kill(ecd_idx, vm_idx, gm_schedule, downtime_ns, raw);
}

void FaultInjector::execute_kill(std::size_t ecd_idx, std::size_t vm_idx, bool gm_schedule,
                                 std::int64_t downtime_ns, bool raw) {
  hv::ClockSyncVm& vm = ecds_[ecd_idx]->vm(vm_idx);
  sim::Simulation& local = ecds_[ecd_idx]->sim();
  const bool remote = rt_ != nullptr && ecd_regions_[ecd_idx] != home_region_;
  if (!replay_mode_ && spared_.count(&vm) > 0) return;
  if (!vm.running()) return;
  if (!raw && !peer_running(ecd_idx, vm_idx)) {
    // Both VMs of a node failing simultaneously would violate the
    // fail-silent fault hypothesis; the paper's tool avoided it too.
    if (remote) {
      rt_->post_control(home_region_, sim::SimTime(local.now().ns() + sim::kControlLookaheadNs),
                        [this] { record_skip(); });
    } else {
      record_skip();
    }
    return;
  }
  const bool was_gm = vm.is_gm();
  vm.shutdown();
  // Not const: by-value lambda capture must stay nothrow-movable.
  InjectionEvent ev{local.now().ns(), vm.name(),  was_gm, false,
                    ecd_idx,          vm_idx,     downtime_ns};
  if (remote) {
    rt_->post_control(home_region_, sim::SimTime(local.now().ns() + sim::kControlLookaheadNs),
                      [this, ev, gm_schedule] { record_kill(ev, gm_schedule); });
  } else {
    record_kill(ev, gm_schedule);
  }

  tracked_at(local, local.now().ns() + downtime_ns, [this, ecd_idx, vm_idx, remote] {
    hv::ClockSyncVm& target = ecds_[ecd_idx]->vm(vm_idx);
    sim::Simulation& lsim = ecds_[ecd_idx]->sim();
    target.boot(/*first_boot=*/false);
    InjectionEvent reboot{lsim.now().ns(), target.name(), target.is_gm(), true,
                          ecd_idx,         vm_idx,        0};
    if (remote) {
      rt_->post_control(home_region_, sim::SimTime(lsim.now().ns() + sim::kControlLookaheadNs),
                        [this, reboot] { record_reboot(reboot); });
    } else {
      record_reboot(reboot);
    }
  });
}

void FaultInjector::record_kill(const InjectionEvent& ev, bool gm_schedule) {
  ++stats_.total_kills;
  ++stats_.pending_reboots;
  if (gm_schedule || ev.was_gm) {
    ++stats_.gm_kills;
  } else {
    ++stats_.standby_kills;
  }
  notify(ev);
}

void FaultInjector::record_reboot(const InjectionEvent& ev) {
  ++stats_.reboots;
  --stats_.pending_reboots;
  notify(ev);
}

void FaultInjector::record_skip() { ++stats_.skipped_fault_hypothesis; }

void FaultInjector::schedule_gm_round(std::uint64_t round) {
  // Relative to start(): an injector attached after a long bring-up must
  // not "catch up" on rounds whose absolute times already passed (that
  // would burst-kill every GM at once, violating the one-failure-per-
  // period cadence the schedule promises).
  const std::int64_t at =
      start_ns_ + static_cast<std::int64_t>(round + 1) * cfg_.gm_kill_period_ns;
  tracked_at(sim_, at, [this, round] {
    const std::size_t ecd_idx = round % ecds_.size();
    // The GM duty sits on VM 0 of each ECD (static configuration).
    for (std::size_t vm_idx = 0; vm_idx < ecds_[ecd_idx]->vm_count(); ++vm_idx) {
      if (ecds_[ecd_idx]->vm(vm_idx).is_gm()) {
        kill(ecd_idx, vm_idx, /*gm_schedule=*/true, cfg_.gm_downtime_ns);
        break;
      }
    }
    schedule_gm_round(round + 1);
  });
}

void FaultInjector::schedule_standby(std::size_t ecd_idx) {
  // Exponential inter-arrival, floored at the configured minimum gap.
  const double mean_gap_ns = 3.6e12 / std::max(cfg_.standby_kills_per_hour, 1e-9);
  const std::int64_t gap = std::max<std::int64_t>(
      static_cast<std::int64_t>(rng_.exponential(mean_gap_ns)), cfg_.standby_min_gap_ns);
  tracked_at(sim_, sim_.now().ns() + gap, [this, ecd_idx] {
    // Kill a non-GM VM of this node.
    for (std::size_t vm_idx = 0; vm_idx < ecds_[ecd_idx]->vm_count(); ++vm_idx) {
      if (!ecds_[ecd_idx]->vm(vm_idx).is_gm()) {
        kill(ecd_idx, vm_idx, /*gm_schedule=*/false, cfg_.standby_downtime_ns);
        break;
      }
    }
    schedule_standby(ecd_idx);
  });
}

void FaultInjector::start() {
  start_ns_ = sim_.now().ns();
  schedule_gm_round(0);
  for (std::size_t i = 0; i < ecds_.size(); ++i) schedule_standby(i);
}

void FaultInjector::run(const ReplaySchedule& schedule) {
  replay_mode_ = true;
  for (const ScheduledFault& f : schedule.faults) {
    const bool raw = schedule.raw;
    tracked_at(sim_, f.at_ns, [this, f, raw] {
      kill(f.ecd, f.vm, /*gm_schedule=*/false, f.downtime_ns, raw);
    });
  }
}

} // namespace tsn::faults
