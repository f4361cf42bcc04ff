// Adversarial-time attacker library (DESIGN.md §11).
//
// Implements the attack families of "Breaking Precision Time: OS
// Vulnerability Exploits Against IEEE 1588" against this repo's
// virtualized 802.1AS world, each as a scripted, seed-derivable schedule
// with the same (master_seed, index) purity as fuzz cases:
//
//   family             layer hook                         magnitude / secondary
//   kDelayConst        net::Link::set_delay_attack        one-way bias ns / -
//   kDelayRamp         net::Link::set_delay_attack        ramp ns per s / -
//   kCorrectionField   TimeAwareBridge::set_correction_attack   bias ns / -
//   kPdelayTurnaround  LinkDelayService::set_turnaround_attack  t3 bias ns / skew ppm
//   kSyncStorm         TimeAwareBridge::start_sync_storm  volley period ns / -
//   kTimerStep         time::PhcClock::step               step ns / -
//   kTimerSkew         time::PhcClock::set_drift_attack   extra ppm / -
//   kKernelExploit     hv::ClockSyncVm::compromise        malicious pOT offset ns / -
//
// Every attack targets one victim ECD: its GM VM's host link, its
// bridge, or its GM VM's PHC or kernel. kKernelExploit is the paper's
// CVE-2018-18955 exploit (sec. III-B): root only on a running GM VM whose
// kernel faults::KernelVulnDb lists, never revoked. The oracle half lives in
// check::AttackExclusionInvariant -- did FTA + diversification keep the
// precision bound Pi for honest nodes, and how long until honest
// aggregation masks evict the attacked domain?
//
// Magnitudes are derived in two safe bands (see derive_attacks): covert
// attacks small enough that the FTA must absorb them (single-outlier
// discard), overt attacks far past the validity threshold so honest
// receivers must evict the victim domain. Overt attacks never revert
// mid-run -- a reverting large attack would force the free-running victim
// through a reconvergence transient no reboot grace window covers.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/persist.hpp"

namespace tsn::experiments {
class Scenario;
}
namespace tsn::gptp {
class LinkDelayService;
class TimeAwareBridge;
}
namespace tsn::hv {
class ClockSyncVm;
}
namespace tsn::net {
class Link;
}
namespace tsn::obs {
class TraceRing;
}
namespace tsn::time {
class PhcClock;
}

namespace tsn::attack {

enum class AttackKind : std::uint8_t {
  kDelayConst,       ///< constant asymmetric path delay on the victim host link
  kDelayRamp,        ///< slowly ramping asymmetric path delay
  kCorrectionField,  ///< compromised bridge inflates its own domain's corrections
  kPdelayTurnaround, ///< compromised responder tampers t3 (skews peer NRR)
  kSyncStorm,        ///< bogus-Sync DoS on an unconfigured domain
  kTimerStep,        ///< one-shot OS-timer step of the victim GM's PHC
  kTimerSkew,        ///< hidden extra drift on the victim GM's PHC
  kKernelExploit,    ///< root exploit on the victim GM VM's kernel, then a malicious ptp4l
};

const char* to_string(AttackKind kind);
std::optional<AttackKind> parse_attack_kind(std::string_view name);

/// True for families that compromise the victim GM VM's own timebase or
/// measurement chain: the per-node oracles (precision bound, synctime
/// monotonicity) exempt that VM from the attack start -- the paper's
/// claim is about honest nodes surviving, not about the compromised node
/// itself staying in spec.
bool compromises_victim_clock(AttackKind kind);

struct AttackSpec {
  AttackKind kind = AttackKind::kDelayConst;
  std::size_t ecd = 0;          ///< victim ECD index
  std::int64_t start_ns = 0;    ///< offset from arming time
  std::int64_t duration_ns = 0; ///< 0 = persists to end of run
  double magnitude = 0.0;       ///< family-specific (see header table)
  double secondary = 0.0;       ///< family-specific second knob
  /// Overt attack: the oracle requires honest nodes to evict the victim
  /// domain (validity-mask bit cleared) within the eviction deadline.
  bool expect_excluded = false;

  bool operator==(const AttackSpec&) const = default;
};

using AttackSchedule = std::vector<AttackSpec>;

/// Derive the attack schedule for campaign case (master_seed, index).
/// Pure, and drawn from a *separate* RNG stream than the fuzz-case
/// derivation, so enabling attacks never perturbs the base worlds.
/// Victims are distinct and at most `fta_f` per case (the FTA's fault
/// hypothesis); every victim hosts a domain (ecd < domain_count).
AttackSchedule derive_attacks(std::uint64_t master_seed, std::uint64_t index,
                              std::size_t num_ecds, std::size_t domain_count, int fta_f,
                              std::int64_t duration_ns);

/// One attack as armed against a concrete scenario (absolute times, the
/// victim's FTA slot and GM VM name resolved).
struct ArmedAttack {
  AttackSpec spec;
  std::int64_t start_abs_ns = 0;
  std::int64_t end_abs_ns = 0; ///< INT64_MAX for open-ended attacks
  std::size_t victim_slot = 0; ///< FTA validity-mask bit of the victim's domain
  std::string victim_vm;       ///< the victim ECD's GM VM name (e.g. "c31")
};

/// Schedules every spec's enable/disable directly on the victim ECD's
/// region Simulation, so arming is legal from the driving thread between
/// stages and the run stays byte-identical across `threads=` and
/// `partitions=` (no cross-region messaging is involved). Pushes a
/// TraceKind::kAttack record into the victim region's ring at each edge.
/// Per-attack state is written only by its victim's region and summed
/// after the run, so same-time edges on different shards never race.
class AttackDriver : public sim::Persistent {
 public:
  /// Call once after bring-up (the suite may be armed before or after);
  /// spec.start_ns offsets are relative to the scenario's current time.
  /// The driver must outlive the run (scheduled closures reference it).
  void arm(experiments::Scenario& scenario, const AttackSchedule& schedule);

  const std::vector<ArmedAttack>& armed() const { return armed_; }

  /// Called on the victim's shard at each kKernelExploit attempt.
  std::function<void(const ArmedAttack&, bool rooted)> on_exploit;
  /// kKernelExploit attempts that fired, and those that obtained root.
  std::size_t exploits_attempted() const;
  std::size_t exploits_rooted() const;

  /// True while any armed attack interval covers `now_ns`. Open-ended
  /// attacks (end_abs_ns == INT64_MAX: overt steps and persistent biases)
  /// count forever -- composed into the fast-forward model gate, this
  /// keeps analytic windows off tampered dynamics for the rest of the
  /// run, which is conservative but always sound.
  bool any_active(std::int64_t now_ns) const;
  /// Earliest attack enable/disable edge strictly after `after_ns`
  /// (INT64_MAX when none): the fast-forward barrier.
  std::int64_t next_edge_ns(std::int64_t after_ns) const;

  // -- sim::Persistent ------------------------------------------------------
  // Accounting-only, like the FaultInjector: the enable/disable edges are
  // standing one-shot events the barrier keeps outside every window.
  const char* persist_name() const override { return "attack-driver"; }
  void save_state(sim::StateWriter&) override {}
  void load_state(sim::StateReader&) override {}
  std::size_t live_events() const override;

 private:
  /// Pre-resolved victim objects, so the scheduled closures capture only
  /// (this, index) and stay inside the event queue's inline storage.
  struct Hook {
    net::Link* link = nullptr;
    gptp::TimeAwareBridge* bridge = nullptr;
    gptp::LinkDelayService* ldl = nullptr;
    time::PhcClock* phc = nullptr;
    hv::ClockSyncVm* vm = nullptr;
    obs::TraceRing* ring = nullptr;
    std::uint16_t src = 0;
    std::uint8_t scheduled = 0; ///< edge events arm() put on the queue
    // Written only on the victim region's shard.
    std::uint8_t fired = 0; ///< edge events that have fired
    bool rooted = false;    ///< kKernelExploit obtained root
  };

  void apply(std::size_t i, bool enable);

  std::vector<ArmedAttack> armed_;
  std::vector<Hook> hooks_;
};

} // namespace tsn::attack
