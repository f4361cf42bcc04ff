// Randomized fault-campaign fuzzing (DESIGN.md §8).
//
// A FuzzCase is a complete, self-contained experiment: a randomized
// testbed topology (node count, tolerated faults f, drift, PDV) plus a
// randomized fault-injection profile, all derived deterministically from
// (master_seed, index) through util::RngStream. run_case() boots the
// world, calibrates the analytic precision bound, attaches the
// InvariantSuite and lets the fault injector loose; the verdict is the
// suite's violation list.
//
// On a violation the case serializes to a replay file -- a key=value text
// that reconstructs the exact world with the exact fault schedule -- and
// shrink_case() delta-debugs the schedule down to the minimal failing
// kill sequence. Replay files under tests/corpus/ double as a regression
// suite.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "attack/attack.hpp"
#include "check/invariant.hpp"
#include "check/shrink.hpp"
#include "check/world.hpp"
#include "experiments/scenario.hpp"
#include "faults/injector.hpp"

namespace tsn::check {

struct FuzzCase {
  std::uint64_t master_seed = 1;
  std::uint64_t index = 0;
  std::int64_t duration_ns = 120'000'000'000LL; ///< fault phase after bring-up
  experiments::ScenarioConfig scenario;
  faults::InjectorConfig injector;
  /// Non-empty: run this scripted schedule instead of the randomized
  /// injector (replay / shrink / synthetic-violation mode).
  faults::ReplaySchedule replay;
  /// Non-empty: arm this adversarial schedule (AttackDriver) and attach
  /// the AttackExclusionInvariant; start_ns offsets are relative to the
  /// end of bring-up, like the injector's clock.
  attack::AttackSchedule attacks;
  /// Run the fault phase under the fast-forward controller (DESIGN.md
  /// §12): quiescent stretches advance analytically, every fault/attack
  /// edge is a barrier, and the invariant suite's armed deadlines keep
  /// windows shut until their evidence has flowed. Forces the serial
  /// runtime (the ff machinery is serial-only; serial and partitioned
  /// runs of one case are verdict-equivalent by the partition-determinism
  /// suite, but not byte-identical).
  bool fast_forward = false;
};

/// Derive case `index` of the campaign keyed by `master_seed`. Pure: the
/// same pair always yields the same case, independent of thread or call
/// order. Parameter ranges are chosen so a healthy implementation passes
/// (e.g. drift is capped so Gamma stays well inside the validity
/// threshold); see DESIGN.md §8 for the ranges and why.
/// `with_attacks` additionally derives an adversarial schedule (from its
/// own RNG stream, so the base world is bit-identical with and without).
FuzzCase derive_case(std::uint64_t master_seed, std::uint64_t index,
                     std::int64_t duration_ns = 120'000'000'000LL, bool with_attacks = false);

/// A case's verdict: its world's result plus the case's identity.
struct CaseResult : WorldResult {
  std::uint64_t index = 0;
  std::uint64_t case_seed = 0; ///< the ScenarioConfig seed actually used
  bool brought_up = false;     ///< every phase ran (false: summary says what threw)
  double bound_ns = 0.0;       ///< calibrated Pi

  bool failed() const { return !brought_up || !violations.empty(); }
};

/// Build the world described by `c`, run it with the invariant suite
/// attached (check::run_world), and return the verdict. Never throws: a
/// world that throws in any phase is reported as a failed result.
CaseResult run_case(const FuzzCase& c);

struct CampaignConfig {
  std::uint64_t master_seed = 1;
  std::size_t num_cases = 64;
  std::size_t threads = 1;
  std::int64_t duration_ns = 120'000'000'000LL;
  /// Attack campaign: every case also carries a derived attack schedule.
  bool attacks = false;
  /// Run every case under the fast-forward controller (FuzzCase::
  /// fast_forward); the week-horizon smoke campaign's switch.
  bool fast_forward = false;
};

struct CampaignResult {
  std::vector<CaseResult> cases; ///< index order
  std::size_t failures = 0;

  /// Deterministic verdict table: one line per case plus a totals line.
  /// Byte-identical for any thread count (results are assembled in index
  /// order and each case is a sealed deterministic world).
  std::string summary_text() const;
};

CampaignResult run_campaign(const CampaignConfig& cfg);

// ---------------------------------------------------------------------------
// Replay files.

/// Serialize a case to self-contained "key=value" text (one key per
/// line, faults as "faultK=at_ns,ecd,vm,downtime_ns").
std::string replay_to_text(const FuzzCase& c);
/// Parse replay text; throws std::runtime_error on malformed input.
FuzzCase replay_from_text(const std::string& text);
void write_replay(const std::string& path, const FuzzCase& c);
/// Throws std::runtime_error if the file cannot be read or parsed.
FuzzCase load_replay(const std::string& path);

/// Extract the scripted schedule equivalent to an observed run: the kill
/// events with their realized times and downtimes (reboots are implied).
faults::ReplaySchedule schedule_from_events(const std::vector<faults::InjectionEvent>& events);

// ---------------------------------------------------------------------------
// Shrinking.

struct ShrinkOutcome {
  FuzzCase minimized;
  ShrinkStats stats;
  /// False if the scripted re-run of the original failure did not
  /// reproduce the violation (timing divergence); `minimized` is then the
  /// un-shrunk scripted case for manual inspection.
  bool reproduced = false;
  std::string target_invariant; ///< the violation class being preserved
  /// Total executive events all runs of this shrink consumed (base run,
  /// verification, every oracle probe). The incremental shrinker's whole
  /// point is making this strictly smaller than the full-re-run ddmin's.
  std::uint64_t events_simulated = 0;
};

/// Minimize a failing case's fault schedule with ddmin. If the case was a
/// randomized run (empty replay), its observed kill events are first
/// converted to a scripted schedule and the failure re-verified. The
/// oracle preserves the first violation's invariant class. Each oracle
/// test is a full scenario run; `max_tests` bounds the budget.
ShrinkOutcome shrink_case(const FuzzCase& c, std::size_t max_tests = 128);

/// Minimize an attack case's FAULT schedule while preserving its full
/// oracle signature -- pass/fail class plus each attack's evicted-or-not
/// verdict (the attacks themselves are the scenario under test and stay).
/// This is how clean attack-campaign cases shrink into compact corpus
/// replays; for failing cases shrink_case() already preserves the
/// violation class with the attacks riding along.
ShrinkOutcome shrink_attack_case(const FuzzCase& c, std::size_t max_tests = 64);

/// shrink_case(), but every ddmin probe starts from a SimSnapshot taken
/// at the converged post-calibration steady state instead of re-building
/// and re-converging the world: one bring-up is paid once, each probe
/// costs restore + fault-phase simulation only, so the events_simulated
/// total is strictly below the full-re-run shrinker's for any non-trivial
/// schedule. Fault-only serial cases only; attack or partitioned cases
/// fall back to shrink_case() (the attack driver arms non-restorable
/// absolute schedules, and snapshots are serial-only).
ShrinkOutcome shrink_case_incremental(const FuzzCase& c, std::size_t max_tests = 128);

} // namespace tsn::check
