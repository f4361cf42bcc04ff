#include "attack/attack.hpp"

#include <algorithm>
#include <numeric>

#include "experiments/scenario.hpp"
#include "faults/kernel_vuln.hpp"
#include "gptp/bridge.hpp"
#include "gptp/link_delay.hpp"
#include "hv/clock_sync_vm.hpp"
#include "hv/ecd.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"
#include "tsn_time/phc_clock.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/round.hpp"
#include "util/str.hpp"

namespace tsn::attack {

namespace {

constexpr std::int64_t kSecond = 1'000'000'000;

/// gPTP domain no VM or bridge ever configures: storm Syncs for it are
/// parsed and dropped everywhere, i.e. pure protocol-processing load.
constexpr std::uint8_t kStormDomain = 0x7F;

/// Nudge a derived instant off the 125 ms protocol grid so attack edges
/// never tie with Sync/aggregation events (ties would make the result
/// depend on scheduling order instead of the model).
std::int64_t odd_ns(std::int64_t t) { return t | 1; }

double random_sign(util::RngStream& rng) { return rng.chance(0.5) ? 1.0 : -1.0; }

} // namespace

const char* to_string(AttackKind kind) {
  switch (kind) {
    case AttackKind::kDelayConst: return "delay_const";
    case AttackKind::kDelayRamp: return "delay_ramp";
    case AttackKind::kCorrectionField: return "correction_field";
    case AttackKind::kPdelayTurnaround: return "pdelay_turnaround";
    case AttackKind::kSyncStorm: return "sync_storm";
    case AttackKind::kTimerStep: return "timer_step";
    case AttackKind::kTimerSkew: return "timer_skew";
    case AttackKind::kKernelExploit: return "kernel_exploit";
  }
  return "?";
}

std::optional<AttackKind> parse_attack_kind(std::string_view name) {
  for (int k = 0; k <= static_cast<int>(AttackKind::kKernelExploit); ++k) {
    const auto kind = static_cast<AttackKind>(k);
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

bool compromises_victim_clock(AttackKind kind) {
  switch (kind) {
    case AttackKind::kDelayConst:
    case AttackKind::kDelayRamp:
    case AttackKind::kPdelayTurnaround:
    case AttackKind::kTimerStep:
    case AttackKind::kTimerSkew:
    case AttackKind::kKernelExploit:
      return true;
    case AttackKind::kCorrectionField:
    case AttackKind::kSyncStorm:
      return false;
  }
  return false;
}

AttackSchedule derive_attacks(std::uint64_t master_seed, std::uint64_t index,
                              std::size_t num_ecds, std::size_t domain_count, int fta_f,
                              std::int64_t duration_ns) {
  (void)num_ecds;
  AttackSchedule out;
  if (domain_count == 0 || duration_ns <= 0) return out;

  util::RngStream rng(master_seed,
                      util::format("attack-case-%llu", static_cast<unsigned long long>(index)));

  // At most f simultaneous victims: the FTA's fault hypothesis. More would
  // legitimately break the bound, which is not an interesting verdict.
  const auto max_victims =
      std::min<std::size_t>(domain_count, static_cast<std::size_t>(std::max(1, fta_f)));
  std::size_t n_victims = 1;
  if (max_victims >= 2 && rng.chance(0.3)) n_victims = 2;

  std::vector<std::size_t> pool(domain_count);
  std::iota(pool.begin(), pool.end(), std::size_t{0});

  for (std::size_t v = 0; v < n_victims; ++v) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    AttackSpec a;
    a.ecd = pool[pick];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));

    // Start well past the startup phase, in the first half of the run so
    // eviction deadlines and reconvergence fit before the end.
    const std::int64_t earliest = 5 * kSecond;
    const std::int64_t latest = std::max(earliest + kSecond, duration_ns / 2);
    a.start_ns = odd_ns(rng.uniform_int(earliest, latest));

    // Covert magnitudes stay far inside the 10 us validity threshold (the
    // FTA's f-discard must absorb them); overt magnitudes land far beyond
    // it (honest receivers must evict the victim domain) and persist to
    // the end of the run -- reverting a large attack would drag the
    // free-running victim through a reconvergence transient that no
    // reboot grace window models.
    switch (rng.uniform_int(0, 5)) {
      case 0:
        a.kind = AttackKind::kDelayConst;
        a.magnitude = static_cast<double>(rng.uniform_int(800, 6'000)); // one-way bias ns
        a.duration_ns = odd_ns(rng.uniform_int(10 * kSecond, 30 * kSecond));
        break;
      case 1:
        a.kind = AttackKind::kDelayRamp;
        a.magnitude = rng.uniform(50.0, 300.0); // ns per second
        a.duration_ns = odd_ns(rng.uniform_int(10 * kSecond, 20 * kSecond));
        break;
      case 2:
        a.kind = AttackKind::kCorrectionField;
        if (rng.chance(0.35)) {
          a.magnitude = random_sign(rng) * static_cast<double>(rng.uniform_int(25'000, 60'000));
          a.duration_ns = 0;
          a.expect_excluded = true;
        } else {
          a.magnitude = random_sign(rng) * static_cast<double>(rng.uniform_int(500, 5'000));
          a.duration_ns = odd_ns(rng.uniform_int(10 * kSecond, 30 * kSecond));
        }
        break;
      case 3:
        a.kind = AttackKind::kPdelayTurnaround;
        // Negative t3 bias: the peer's measured delay inflates by |bias|/2
        // (a positive bias could drive it negative, which real hardware
        // cannot produce and the covert band is symmetric anyway).
        a.magnitude = -static_cast<double>(rng.uniform_int(1'000, 6'000));
        a.secondary = random_sign(rng) * rng.uniform(5.0, 60.0); // t3 skew ppm
        a.duration_ns = odd_ns(rng.uniform_int(10 * kSecond, 30 * kSecond));
        break;
      case 4:
        a.kind = AttackKind::kSyncStorm;
        a.magnitude =
            static_cast<double>(odd_ns(rng.uniform_int(1'000'000, 4'000'000))); // volley period
        a.duration_ns = odd_ns(rng.uniform_int(5 * kSecond, 15 * kSecond));
        break;
      default:
        if (rng.chance(0.5)) {
          a.kind = AttackKind::kTimerStep;
          a.magnitude = random_sign(rng) * static_cast<double>(rng.uniform_int(25'000, 80'000));
          a.duration_ns = 0; // a step cannot be "un-stepped"
          a.expect_excluded = true;
        } else {
          a.kind = AttackKind::kTimerSkew;
          a.magnitude = random_sign(rng) * rng.uniform(2.0, 10.0); // extra ppm
          a.duration_ns = odd_ns(rng.uniform_int(10 * kSecond, 30 * kSecond));
        }
        break;
    }
    out.push_back(a);
  }
  return out;
}

void AttackDriver::arm(experiments::Scenario& scenario, const AttackSchedule& schedule) {
  const std::int64_t now = scenario.now_ns();
  armed_.reserve(armed_.size() + schedule.size());
  hooks_.reserve(hooks_.size() + schedule.size());

  for (const AttackSpec& spec : schedule) {
    ArmedAttack a;
    a.spec = spec;
    a.start_abs_ns = now + spec.start_ns;
    a.end_abs_ns = spec.duration_ns > 0 ? a.start_abs_ns + spec.duration_ns : INT64_MAX;
    a.victim_slot = spec.ecd; // slot i of the validity mask is domain i+1, ECD i's
    a.victim_vm = scenario.gm_vm(spec.ecd).name();

    Hook h;
    // Partitioned worlds keep one ring per region and one region per ECD,
    // so the victim's edges land in its own region's deterministic order.
    obs::TraceRing& ring = scenario.region_trace(scenario.partitioned() ? spec.ecd : 0);
    h.ring = &ring;
    h.src = ring.intern(util::format("attack/%s", to_string(spec.kind)));
    switch (spec.kind) {
      case AttackKind::kDelayConst:
      case AttackKind::kDelayRamp:
        h.link = &scenario.host_link(spec.ecd, 0); // the victim GM VM's host link
        break;
      case AttackKind::kCorrectionField:
      case AttackKind::kSyncStorm:
        h.bridge = &scenario.bridge(spec.ecd);
        break;
      case AttackKind::kPdelayTurnaround:
        // The compromised responder on the bridge port facing the GM VM:
        // it poisons the VM's initiator-side NRR and meanLinkDelay.
        h.ldl = &scenario.bridge(spec.ecd).port_link_delay(0);
        break;
      case AttackKind::kTimerStep:
      case AttackKind::kTimerSkew:
        h.phc = &scenario.gm_vm(spec.ecd).nic().phc();
        break;
      case AttackKind::kKernelExploit:
        h.vm = &scenario.gm_vm(spec.ecd);
        break;
    }

    const std::size_t i = armed_.size();
    armed_.push_back(std::move(a));
    hooks_.push_back(h);

    // Everything the attack touches lives in the victim ECD's region, so
    // scheduling straight on its Simulation keeps partitioned runs
    // byte-identical across threads= and partitions= (no boundary
    // channels, no lookahead interaction).
    sim::Simulation& rsim = scenario.ecd(spec.ecd).sim();
    ++hooks_[i].scheduled;
    rsim.at(sim::SimTime(armed_[i].start_abs_ns), [this, i] { apply(i, true); });
    if (armed_[i].end_abs_ns != INT64_MAX) {
      ++hooks_[i].scheduled;
      rsim.at(sim::SimTime(armed_[i].end_abs_ns), [this, i] { apply(i, false); });
    }
  }
}

std::size_t AttackDriver::live_events() const {
  std::size_t live = 0;
  for (const Hook& h : hooks_) live += h.scheduled - h.fired;
  return live;
}

std::size_t AttackDriver::exploits_attempted() const {
  std::size_t n = 0;
  for (const Hook& h : hooks_) n += h.vm != nullptr && h.fired > 0;
  return n;
}

std::size_t AttackDriver::exploits_rooted() const {
  std::size_t n = 0;
  for (const Hook& h : hooks_) n += h.rooted;
  return n;
}

bool AttackDriver::any_active(std::int64_t now_ns) const {
  for (const ArmedAttack& a : armed_) {
    if (a.start_abs_ns <= now_ns && now_ns < a.end_abs_ns) return true;
  }
  return false;
}

std::int64_t AttackDriver::next_edge_ns(std::int64_t after_ns) const {
  std::int64_t best = INT64_MAX;
  for (const ArmedAttack& a : armed_) {
    if (a.start_abs_ns > after_ns) best = std::min(best, a.start_abs_ns);
    if (a.end_abs_ns != INT64_MAX && a.end_abs_ns > after_ns) best = std::min(best, a.end_abs_ns);
  }
  return best;
}

void AttackDriver::apply(std::size_t i, bool enable) {
  const ArmedAttack& a = armed_[i];
  const AttackSpec& s = a.spec;
  Hook& h = hooks_[i];
  ++h.fired;

  switch (s.kind) {
    case AttackKind::kDelayConst:
      if (enable) {
        h.link->set_delay_attack(true, util::round_i64(s.magnitude), 0.0);
      } else {
        h.link->clear_delay_attack(true);
      }
      break;
    case AttackKind::kDelayRamp:
      if (enable) {
        h.link->set_delay_attack(true, 0, s.magnitude);
      } else {
        h.link->clear_delay_attack(true);
      }
      break;
    case AttackKind::kCorrectionField:
      if (enable) {
        h.bridge->set_correction_attack(static_cast<std::uint8_t>(s.ecd + 1), s.magnitude);
      } else {
        h.bridge->clear_correction_attack();
      }
      break;
    case AttackKind::kPdelayTurnaround:
      if (enable) {
        h.ldl->set_turnaround_attack(s.magnitude, s.secondary);
      } else {
        h.ldl->clear_turnaround_attack();
      }
      break;
    case AttackKind::kSyncStorm:
      if (enable) {
        h.bridge->start_sync_storm(kStormDomain,
                                   util::round_i64(s.magnitude));
      } else {
        h.bridge->stop_sync_storm();
      }
      break;
    case AttackKind::kTimerStep:
      if (enable) h.phc->step(util::round_i64(s.magnitude));
      break;
    case AttackKind::kTimerSkew:
      if (enable) {
        h.phc->set_drift_attack(s.magnitude);
      } else {
        h.phc->clear_drift_attack();
      }
      break;
    case AttackKind::kKernelExploit: {
      static const faults::KernelVulnDb vulns = faults::KernelVulnDb::with_defaults();
      h.rooted =
          h.vm->running() && vulns.vulnerable(h.vm->kernel_version(), faults::kCve2018_18955);
      // Root obtained: swap in the malicious ptp4l.
      if (h.rooted) h.vm->compromise(util::round_i64(s.magnitude));
      TSN_LOG_INFO("attack", "exploit %s on %s (kernel %s): %s", faults::kCve2018_18955,
                   a.victim_vm.c_str(), h.vm->kernel_version().c_str(),
                   h.rooted ? "SUCCESS" : "failed");
      if (on_exploit) on_exploit(a, h.rooted);
      break;
    }
  }

  obs::TraceRecord rec;
  rec.t_ns = enable ? a.start_abs_ns : a.end_abs_ns;
  rec.kind = obs::TraceKind::kAttack;
  rec.source = h.src;
  rec.a = static_cast<std::uint32_t>(s.kind);
  rec.mask = enable ? 1u : 0u;
  rec.v0 = s.magnitude;
  rec.v1 = static_cast<double>(s.ecd);
  h.ring->push(rec);
}

} // namespace tsn::attack
