#include "check/fuzz.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "experiments/harness.hpp"
#include "sweep/sweep_runner.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

namespace tsn::check {

namespace {

/// Odd nanosecond values never collide with the 125 ms periodic grid
/// (monitor ticks, sync intervals), so replay-mode kills land at unique
/// event-queue timestamps and the randomized and scripted runs order
/// identically.
std::int64_t odd_ns(std::int64_t v) { return v | 1; }

} // namespace

FuzzCase derive_case(std::uint64_t master_seed, std::uint64_t index, std::int64_t duration_ns,
                     bool with_attacks) {
  util::RngStream rng(master_seed, util::format("fuzz-case-%llu", (unsigned long long)index));

  FuzzCase c;
  c.master_seed = master_seed;
  c.index = index;
  c.duration_ns = duration_ns;

  experiments::ScenarioConfig& s = c.scenario;
  s.seed = rng.engine()();

  // Topology: f = 1 with N in [4, 6] most of the time; occasionally the
  // f = 2 configuration, which needs N = 7 (the FTA requires N > 3f).
  if (rng.chance(0.2)) {
    s.fta_f = 2;
    s.num_ecds = 7;
  } else {
    s.fta_f = 1;
    s.num_ecds = static_cast<std::size_t>(rng.uniform_int(4, 6));
  }
  s.gm_kernels.assign(s.num_ecds, "4.19.1");

  // Clock and network randomization. Drift is capped at 12 ppm so Gamma =
  // 2 * rmax * S stays <= 3 us and the analytic bound Pi stays clear of
  // the 10 us validity threshold -- beyond that, losing quorum is the
  // *correct* behavior and every case would "fail" by design.
  s.max_drift_ppm = rng.uniform(2.0, 12.0);
  s.wander_sigma_ppm = rng.uniform(0.001, 0.004);
  s.nic_ts_jitter_ns = rng.uniform(4.0, 40.0);
  s.initial_phase_range_ns = rng.uniform(10'000.0, 100'000.0);
  s.host_link_jitter_ns = rng.uniform(5.0, 40.0);
  s.mesh_link_jitter_ns = rng.uniform(20.0, 120.0);
  s.switch_residence_jitter_ns = rng.uniform(40.0, 200.0);

  // Fault profile: aggressive enough that a two-minute window sees several
  // GM fail-overs and standby losses, spaced so the warm-reboot
  // reconvergence window (~20 s) fits between kills of the same node.
  faults::InjectorConfig& inj = c.injector;
  inj.gm_kill_period_ns = odd_ns(rng.uniform_int(12'000'000'000LL, 30'000'000'000LL));
  inj.gm_downtime_ns = odd_ns(rng.uniform_int(5'000'000'000LL, 20'000'000'000LL));
  inj.standby_kills_per_hour = rng.uniform(20.0, 90.0);
  inj.standby_min_gap_ns = odd_ns(rng.uniform_int(8'000'000'000LL, 20'000'000'000LL));
  inj.standby_downtime_ns = odd_ns(rng.uniform_int(5'000'000'000LL, 20'000'000'000LL));

  // Long horizons stretch the fault spacing with the duration instead of
  // keeping the rate: the profile above is tuned so a two-minute window
  // sees a handful of kills, and a week at a 12-30 s cadence would leave
  // the fast-forward path no quiescent stretch to cross (and make every
  // case mostly reconvergence transient). Same expected kill count per
  // case whatever the horizon; downtimes stay physical.
  constexpr std::int64_t kProfileBaseNs = 120'000'000'000LL;
  if (duration_ns > kProfileBaseNs) {
    const long double stretch =
        static_cast<long double>(duration_ns) / static_cast<long double>(kProfileBaseNs);
    inj.gm_kill_period_ns =
        odd_ns(static_cast<std::int64_t>(static_cast<long double>(inj.gm_kill_period_ns) * stretch));
    inj.standby_min_gap_ns =
        odd_ns(static_cast<std::int64_t>(static_cast<long double>(inj.standby_min_gap_ns) * stretch));
    inj.standby_kills_per_hour /= static_cast<double>(stretch);
  }

  // A quarter of the cases run on the conservative-parallel runtime.
  // partitions = 1 keeps each fuzz worker single-threaded (the campaign
  // already parallelizes across cases) while still exercising every
  // cross-region protocol path: boundary links, control channels, the
  // merged oracle dispatch.
  s.partitions = rng.chance(0.25) ? 1 : 0;

  if (with_attacks) {
    // Separate RNG stream: the base world above stays bit-identical with
    // and without attacks. Every ECD hosts a domain here (derive_case
    // caps num_ecds at 7, well inside the STSHMEM slot count).
    c.attacks = attack::derive_attacks(master_seed, index, s.num_ecds,
                                       /*domain_count=*/s.num_ecds, s.fta_f, duration_ns);
  }
  return c;
}

CaseResult run_case(const FuzzCase& c) {
  WorldSpec spec;
  spec.scenario = c.scenario;
  // Fast-forward is serial-only; serial and partitioned executions of the
  // same case are verdict-equivalent (partition-determinism suite), so
  // forcing the serial runtime preserves the case's meaning.
  if (c.fast_forward) spec.scenario.partitions = 0;
  spec.attacks = c.attacks;
  spec.injector = c.injector;
  spec.replay = c.replay;
  spec.oracles = true;
  spec.ff = c.fast_forward;
  spec.horizon_ns = c.duration_ns;
  CaseResult out;
  try {
    static_cast<WorldResult&>(out) = run_world(spec);
    out.brought_up = true;
    out.bound_ns = out.cal.bound.pi_ns;
    if (!c.attacks.empty()) {
      std::size_t evicted = 0;
      for (const auto& v : out.attack_verdicts) evicted += v.excluded_at_ns.has_value();
      out.summary += util::format(" attacks=%zu evicted=%zu", out.attack_verdicts.size(), evicted);
    }
  } catch (const std::exception& e) {
    out.summary = util::format("bringup-failed: %s", e.what());
  }
  out.index = c.index;
  out.case_seed = c.scenario.seed;
  return out;
}

CampaignResult run_campaign(const CampaignConfig& cfg) {
  sweep::SweepRunner runner({.threads = cfg.threads});
  CampaignResult out;
  out.cases = runner.run_indexed(cfg.num_cases, [&cfg](std::size_t i) {
    FuzzCase c = derive_case(cfg.master_seed, i, cfg.duration_ns, cfg.attacks);
    c.fast_forward = cfg.fast_forward;
    return run_case(c);
  });
  for (const CaseResult& r : out.cases) {
    if (r.failed()) ++out.failures;
  }
  return out;
}

std::string CampaignResult::summary_text() const {
  std::string out;
  for (const CaseResult& r : cases) {
    out += util::format("case %llu seed=%llu kills=%llu %s\n", (unsigned long long)r.index,
                        (unsigned long long)r.case_seed,
                        (unsigned long long)r.injector_stats.total_kills, r.summary.c_str());
  }
  out += util::format("campaign: %zu cases, %zu failing\n", cases.size(), failures);
  return out;
}

// ---------------------------------------------------------------------------
// Replay files.

namespace {

const char* method_name(core::AggregationMethod m) {
  switch (m) {
    case core::AggregationMethod::kMedian: return "median";
    case core::AggregationMethod::kMean: return "mean";
    case core::AggregationMethod::kFta: break;
  }
  return "fta";
}

core::AggregationMethod parse_method(const std::string& name) {
  if (name == "median") return core::AggregationMethod::kMedian;
  if (name == "mean") return core::AggregationMethod::kMean;
  if (name == "fta") return core::AggregationMethod::kFta;
  throw std::runtime_error("replay: unknown aggregation '" + name + "'");
}

} // namespace

std::string replay_to_text(const FuzzCase& c) {
  const experiments::ScenarioConfig& s = c.scenario;
  const faults::InjectorConfig& inj = c.injector;
  std::string out = "# tsnfta_fuzz replay -- self-contained failing (or corpus) case\n";
  out += util::format("master_seed=%llu\n", (unsigned long long)c.master_seed);
  out += util::format("index=%llu\n", (unsigned long long)c.index);
  out += util::format("duration_ns=%lld\n", (long long)c.duration_ns);
  out += util::format("seed=%llu\n", (unsigned long long)s.seed);
  out += util::format("num_ecds=%zu\n", s.num_ecds);
  out += util::format("fta_f=%d\n", s.fta_f);
  out += util::format("aggregation=%s\n", method_name(s.aggregation));
  out += util::format("topology=%s\n", experiments::topology_name(s.topology));
  out += util::format("num_domains=%zu\n", s.num_domains);
  out += util::format("partitions=%zu\n", s.partitions);
  out += util::format("max_drift_ppm=%.17g\n", s.max_drift_ppm);
  out += util::format("wander_sigma_ppm=%.17g\n", s.wander_sigma_ppm);
  out += util::format("nic_ts_jitter_ns=%.17g\n", s.nic_ts_jitter_ns);
  out += util::format("initial_phase_range_ns=%.17g\n", s.initial_phase_range_ns);
  out += util::format("host_link_delay_ns=%lld\n", (long long)s.host_link_delay_ns);
  out += util::format("host_link_jitter_ns=%.17g\n", s.host_link_jitter_ns);
  out += util::format("mesh_link_delay_ns=%lld\n", (long long)s.mesh_link_delay_ns);
  out += util::format("mesh_link_jitter_ns=%.17g\n", s.mesh_link_jitter_ns);
  out += util::format("switch_residence_ns=%lld\n", (long long)s.switch_residence_ns);
  out += util::format("switch_residence_jitter_ns=%.17g\n", s.switch_residence_jitter_ns);
  out += util::format("sync_interval_ns=%lld\n", (long long)s.sync_interval_ns);
  out += util::format("validity_threshold_ns=%.17g\n", s.validity_threshold_ns);
  out += util::format("startup_threshold_ns=%.17g\n", s.startup_threshold_ns);
  out += util::format("startup_consecutive=%d\n", s.startup_consecutive);
  out += util::format("synctime_period_ns=%lld\n", (long long)s.synctime_period_ns);
  out += util::format("synctime_feed_forward=%d\n", s.synctime_feed_forward ? 1 : 0);
  out += util::format("gm_mutual_sync=%d\n", s.gm_mutual_sync ? 1 : 0);
  out += util::format("measurement_ecd=%zu\n", s.measurement_ecd);
  out += util::format("gm_kill_period_ns=%lld\n", (long long)inj.gm_kill_period_ns);
  out += util::format("gm_downtime_ns=%lld\n", (long long)inj.gm_downtime_ns);
  out += util::format("standby_kills_per_hour=%.17g\n", inj.standby_kills_per_hour);
  out += util::format("standby_min_gap_ns=%lld\n", (long long)inj.standby_min_gap_ns);
  out += util::format("standby_downtime_ns=%lld\n", (long long)inj.standby_downtime_ns);
  out += util::format("replay_raw=%d\n", c.replay.raw ? 1 : 0);
  out += util::format("fast_forward=%d\n", c.fast_forward ? 1 : 0);
  for (std::size_t i = 0; i < c.replay.faults.size(); ++i) {
    const faults::ScheduledFault& f = c.replay.faults[i];
    out += util::format("fault%zu=%lld,%zu,%zu,%lld\n", i, (long long)f.at_ns, f.ecd, f.vm,
                        (long long)f.downtime_ns);
  }
  for (std::size_t i = 0; i < c.attacks.size(); ++i) {
    const attack::AttackSpec& a = c.attacks[i];
    out += util::format("attack%zu=%s,%zu,%lld,%lld,%.17g,%.17g,%d\n", i,
                        attack::to_string(a.kind), a.ecd, (long long)a.start_ns,
                        (long long)a.duration_ns, a.magnitude, a.secondary,
                        a.expect_excluded ? 1 : 0);
  }
  return out;
}

FuzzCase replay_from_text(const std::string& text) {
  // Every scalar goes through util::Config, so a value must parse whole
  // and a key nothing reads (a misspelling) is rejected by name.
  util::Config kv;
  std::vector<std::pair<std::size_t, faults::ScheduledFault>> faults;
  std::vector<std::pair<std::size_t, attack::AttackSpec>> attacks;
  std::istringstream in(text);
  std::string line;
  auto parse_ordinal = [](const std::string& key, std::size_t prefix_len) {
    std::size_t ordinal = 0;
    for (std::size_t i = prefix_len; i < key.size(); ++i) {
      if (key[i] < '0' || key[i] > '9') throw std::runtime_error("replay: bad key '" + key + "'");
      ordinal = ordinal * 10 + static_cast<std::size_t>(key[i] - '0');
    }
    return ordinal;
  };
  // The comma-separated fields of a fault<N>/attack<N> value, exactly `n`.
  auto fields = [](const std::string& key, const std::string& value, std::size_t n) {
    std::vector<std::string> out;
    for (std::size_t start = 0;;) {
      const std::size_t comma = value.find(',', start);
      out.push_back(value.substr(start, comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (out.size() != n) {
      throw std::runtime_error(util::format("replay: '%s' needs %zu fields, got '%s'", key.c_str(),
                                            n, value.c_str()));
    }
    return out;
  };
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) throw std::runtime_error("replay: bad line '" + line + "'");
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key.rfind("fault", 0) == 0 && key.size() > 5) {
      const std::size_t ordinal = parse_ordinal(key, 5);
      const std::vector<std::string> f = fields(key, value, 4);
      faults::ScheduledFault fault;
      fault.at_ns = util::parse_int(key + ".at_ns", f[0]);
      fault.ecd = static_cast<std::size_t>(util::parse_uint64(key + ".ecd", f[1]));
      fault.vm = static_cast<std::size_t>(util::parse_uint64(key + ".vm", f[2]));
      fault.downtime_ns = util::parse_int(key + ".downtime_ns", f[3]);
      faults.emplace_back(ordinal, fault);
    } else if (key.rfind("attack", 0) == 0 && key.size() > 6) {
      const std::size_t ordinal = parse_ordinal(key, 6);
      const std::vector<std::string> f = fields(key, value, 7);
      const auto kind = attack::parse_attack_kind(f[0]);
      if (!kind) throw std::runtime_error("replay: unknown attack kind in '" + value + "'");
      attack::AttackSpec a;
      a.kind = *kind;
      a.ecd = static_cast<std::size_t>(util::parse_uint64(key + ".ecd", f[1]));
      a.start_ns = util::parse_int(key + ".start_ns", f[2]);
      a.duration_ns = util::parse_int(key + ".duration_ns", f[3]);
      a.magnitude = util::parse_double(key + ".magnitude", f[4]);
      a.secondary = util::parse_double(key + ".secondary", f[5]);
      a.expect_excluded = util::parse_int(key + ".expect_excluded", f[6]) != 0;
      attacks.emplace_back(ordinal, a);
    } else {
      kv.set(key, value);
    }
  }

  auto get_size = [&](const char* key, std::size_t def) {
    return static_cast<std::size_t>(kv.get_uint64(key, def));
  };

  FuzzCase c;
  c.master_seed = kv.get_uint64("master_seed", c.master_seed);
  c.index = kv.get_uint64("index", c.index);
  c.duration_ns = kv.get_int("duration_ns", c.duration_ns);

  experiments::ScenarioConfig& s = c.scenario;
  s.seed = kv.get_uint64("seed", s.seed);
  s.num_ecds = get_size("num_ecds", s.num_ecds);
  s.fta_f = static_cast<int>(kv.get_int("fta_f", s.fta_f));
  if (kv.has("aggregation")) s.aggregation = parse_method(kv.get_string("aggregation"));
  if (kv.has("topology")) s.topology = experiments::parse_topology(kv.get_string("topology"));
  s.num_domains = get_size("num_domains", s.num_domains);
  s.partitions = get_size("partitions", s.partitions);
  s.max_drift_ppm = kv.get_double("max_drift_ppm", s.max_drift_ppm);
  s.wander_sigma_ppm = kv.get_double("wander_sigma_ppm", s.wander_sigma_ppm);
  s.nic_ts_jitter_ns = kv.get_double("nic_ts_jitter_ns", s.nic_ts_jitter_ns);
  s.initial_phase_range_ns = kv.get_double("initial_phase_range_ns", s.initial_phase_range_ns);
  s.host_link_delay_ns = kv.get_int("host_link_delay_ns", s.host_link_delay_ns);
  s.host_link_jitter_ns = kv.get_double("host_link_jitter_ns", s.host_link_jitter_ns);
  s.mesh_link_delay_ns = kv.get_int("mesh_link_delay_ns", s.mesh_link_delay_ns);
  s.mesh_link_jitter_ns = kv.get_double("mesh_link_jitter_ns", s.mesh_link_jitter_ns);
  s.switch_residence_ns = kv.get_int("switch_residence_ns", s.switch_residence_ns);
  s.switch_residence_jitter_ns =
      kv.get_double("switch_residence_jitter_ns", s.switch_residence_jitter_ns);
  s.sync_interval_ns = kv.get_int("sync_interval_ns", s.sync_interval_ns);
  s.validity_threshold_ns = kv.get_double("validity_threshold_ns", s.validity_threshold_ns);
  s.startup_threshold_ns = kv.get_double("startup_threshold_ns", s.startup_threshold_ns);
  s.startup_consecutive = static_cast<int>(kv.get_int("startup_consecutive", s.startup_consecutive));
  s.synctime_period_ns = kv.get_int("synctime_period_ns", s.synctime_period_ns);
  s.synctime_feed_forward = kv.get_bool("synctime_feed_forward", s.synctime_feed_forward);
  s.gm_mutual_sync = kv.get_bool("gm_mutual_sync", s.gm_mutual_sync);
  s.measurement_ecd = get_size("measurement_ecd", s.measurement_ecd);
  s.gm_kernels.assign(s.num_ecds, "4.19.1");

  faults::InjectorConfig& inj = c.injector;
  inj.gm_kill_period_ns = kv.get_int("gm_kill_period_ns", inj.gm_kill_period_ns);
  inj.gm_downtime_ns = kv.get_int("gm_downtime_ns", inj.gm_downtime_ns);
  inj.standby_kills_per_hour = kv.get_double("standby_kills_per_hour", inj.standby_kills_per_hour);
  inj.standby_min_gap_ns = kv.get_int("standby_min_gap_ns", inj.standby_min_gap_ns);
  inj.standby_downtime_ns = kv.get_int("standby_downtime_ns", inj.standby_downtime_ns);

  c.replay.raw = kv.get_bool("replay_raw", false);
  c.fast_forward = kv.get_bool("fast_forward", false);
  kv.reject_unread();
  // A kill of a VM the world lacks, or an attack on an ECD that hosts no
  // GM, would silently run nothing.
  for (const auto& [ordinal, f] : faults) {
    if (f.ecd >= s.num_ecds || f.vm >= 2) {
      throw std::runtime_error(util::format("replay: 'fault%zu' names VM %zu of ECD %zu of %zu "
                                            "ECDs with 2 VMs each",
                                            ordinal, f.vm, f.ecd, s.num_ecds));
    }
  }
  for (const auto& [ordinal, a] : attacks) {
    if (a.ecd >= s.domain_count()) {
      throw std::runtime_error(util::format("replay: 'attack%zu' names ECD %zu, not one of the "
                                            "%zu GM hosts", ordinal, a.ecd, s.domain_count()));
    }
  }
  std::sort(faults.begin(), faults.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [ordinal, f] : faults) c.replay.faults.push_back(f);
  std::sort(attacks.begin(), attacks.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [ordinal, a] : attacks) c.attacks.push_back(a);
  return c;
}

void write_replay(const std::string& path, const FuzzCase& c) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("replay: cannot write " + path);
  out << replay_to_text(c);
}

FuzzCase load_replay(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("replay: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return replay_from_text(buf.str());
}

faults::ReplaySchedule schedule_from_events(const std::vector<faults::InjectionEvent>& events) {
  faults::ReplaySchedule schedule;
  for (const faults::InjectionEvent& ev : events) {
    if (ev.is_reboot) continue;
    schedule.faults.push_back(
        faults::ScheduledFault{ev.at_ns, ev.ecd_idx, ev.vm_idx, ev.downtime_ns});
  }
  return schedule;
}

ShrinkOutcome shrink_case(const FuzzCase& c, std::size_t max_tests) {
  ShrinkOutcome out;
  out.minimized = c;

  const CaseResult base = run_case(c);
  out.events_simulated += base.events_executed;
  if (!base.brought_up || base.violations.empty()) return out; // nothing to shrink
  out.target_invariant = base.violations.front().invariant;
  const std::string& target = out.target_invariant;

  auto fails_with = [&target](const CaseResult& r) {
    for (const Violation& v : r.violations) {
      if (v.invariant == target) return true;
    }
    return false;
  };

  // Script the randomized run so the schedule becomes an editable list,
  // then confirm the scripted twin still shows the same violation class.
  FuzzCase scripted = c;
  if (scripted.replay.empty()) {
    scripted.replay = schedule_from_events(base.events);
    out.minimized = scripted;
    const CaseResult check = run_case(scripted);
    out.events_simulated += check.events_executed;
    if (!fails_with(check)) return out; // timing divergence: report un-shrunk
  }
  out.reproduced = true;

  auto oracle = [&](const std::vector<faults::ScheduledFault>& candidate) {
    FuzzCase t = scripted;
    t.replay.faults = candidate;
    const CaseResult r = run_case(t);
    out.events_simulated += r.events_executed;
    return fails_with(r);
  };
  out.minimized = scripted;
  out.minimized.replay.faults = ddmin(scripted.replay.faults, oracle, &out.stats, max_tests);
  return out;
}

ShrinkOutcome shrink_case_incremental(const FuzzCase& c, std::size_t max_tests) {
  // The attack driver arms absolute schedules straight on the queues (not
  // restorable), and snapshots are serial-only: both shapes keep the
  // proven full-re-run path.
  if (!c.attacks.empty() || c.scenario.partitions > 0) return shrink_case(c, max_tests);

  ShrinkOutcome out;
  out.minimized = c;

  // A randomized case needs one observed run to extract the schedule (the
  // violation class comes with it for free); a scripted corpus case skips
  // straight to the shared world.
  FuzzCase scripted = c;
  if (scripted.replay.empty()) {
    const CaseResult base = run_case(c);
    out.events_simulated += base.events_executed;
    if (!base.brought_up || base.violations.empty()) return out;
    out.target_invariant = base.violations.front().invariant;
    scripted.replay = schedule_from_events(base.events);
    out.minimized = scripted;
    if (scripted.replay.faults.empty()) return out;
  }

  try {
    experiments::Scenario scenario(scripted.scenario);
    experiments::ExperimentHarness harness(scenario);
    harness.bring_up();
    const auto cal = harness.calibrate();

    // The shared baseline: one converged world, captured once at the
    // first component-quiescent instant after calibration. Every
    // scheduled fault must lie beyond the capture time or probes would
    // schedule kills in the restored world's past.
    if (!scenario.run_to_quiescence()) {
      ShrinkOutcome fb = shrink_case(scripted, max_tests);
      fb.events_simulated += out.events_simulated + scenario.events_executed();
      return fb;
    }
    const sim::SimSnapshot snap = scenario.snapshot();
    for (const faults::ScheduledFault& f : scripted.replay.faults) {
      if (f.at_ns <= snap.now_ns) {
        ShrinkOutcome fb = shrink_case(scripted, max_tests);
        fb.events_simulated += out.events_simulated + scenario.events_executed();
        return fb;
      }
    }
    const std::int64_t end_ns = snap.now_ns + scripted.duration_ns;

    // One probe = restore + fresh suite and injector + fault phase. The
    // restore clears the queue first, so the previous probe's stale suite
    // and injector closures (standing polls, pending reboots) die before
    // anything could invoke their destroyed owners.
    auto probe = [&](const std::vector<faults::ScheduledFault>& candidate) {
      scenario.restore(snap);
      InvariantSuite suite(scenario);
      SuiteParams sp;
      sp.bound_ns = cal.bound.pi_ns;
      suite.add_default_invariants(sp);
      faults::FaultInjector injector(scenario.sim(), scenario.ecd_ptrs(), scripted.injector);
      suite.observe(injector);
      suite.arm();
      faults::ReplaySchedule sched;
      sched.raw = scripted.replay.raw;
      sched.faults = candidate;
      injector.run(sched);
      scenario.run_to(end_ns);
      suite.finalize();
      return suite.violations();
    };
    auto fails_with = [&out](const std::vector<Violation>& vio) {
      for (const Violation& v : vio) {
        if (v.invariant == out.target_invariant) return true;
      }
      return false;
    };

    // The violation must re-prove itself inside THIS harness: the
    // snapshot timeline trails run_case's by the quiescence hunt, so the
    // full schedule is re-verified (and, for corpus cases, the target
    // class is learned) before any reduction is trusted.
    const std::vector<Violation> full = probe(scripted.replay.faults);
    if (out.target_invariant.empty()) {
      if (full.empty()) {
        out.events_simulated += scenario.events_executed();
        return out;
      }
      out.target_invariant = full.front().invariant;
    } else if (!fails_with(full)) {
      out.minimized = scripted;
      out.events_simulated += scenario.events_executed();
      return out; // timing divergence: report un-shrunk
    }
    out.reproduced = true;

    auto oracle = [&](const std::vector<faults::ScheduledFault>& candidate) {
      return fails_with(probe(candidate));
    };
    out.minimized = scripted;
    out.minimized.replay.faults = ddmin(scripted.replay.faults, oracle, &out.stats, max_tests);
    out.events_simulated += scenario.events_executed();
  } catch (const std::exception&) {
    // Construction or bring-up failed: nothing to shrink (mirrors
    // run_case's never-throw contract).
  }
  return out;
}

ShrinkOutcome shrink_attack_case(const FuzzCase& c, std::size_t max_tests) {
  ShrinkOutcome out;
  out.minimized = c;

  const CaseResult base = run_case(c);
  out.events_simulated += base.events_executed;
  if (!base.brought_up) return out;

  // The preserved property is the whole oracle signature: the verdict
  // class plus each attack's evicted-or-not bit (eviction *latencies*
  // shift as faults disappear; the pattern must not).
  auto signature = [](const CaseResult& r) {
    std::string sig =
        r.failed() ? (r.violations.empty() ? "fail" : "fail:" + r.violations.front().invariant)
                   : "ok";
    for (const AttackExclusionInvariant::Verdict& v : r.attack_verdicts) {
      sig += v.excluded_at_ns ? "+evicted" : "+held";
    }
    return sig;
  };
  const std::string target = signature(base);
  out.target_invariant = target;

  FuzzCase scripted = c;
  if (scripted.replay.empty()) {
    scripted.replay = schedule_from_events(base.events);
    out.minimized = scripted;
    if (scripted.replay.empty()) {
      // No faults at all: the attack schedule IS the minimal case.
      out.reproduced = true;
      out.stats.initial_size = 0;
      out.stats.final_size = 0;
      return out;
    }
    const CaseResult check = run_case(scripted);
    out.events_simulated += check.events_executed;
    if (signature(check) != target) return out; // timing divergence
  }
  out.reproduced = true;

  auto oracle = [&](const std::vector<faults::ScheduledFault>& candidate) {
    // An emptied schedule must stay scripted (an empty replay would fall
    // back to the randomized injector): keep one-element minimum unless
    // the schedule was already empty.
    if (candidate.empty()) return false;
    FuzzCase t = scripted;
    t.replay.faults = candidate;
    const CaseResult r = run_case(t);
    out.events_simulated += r.events_executed;
    return signature(r) == target;
  };
  out.minimized = scripted;
  out.minimized.replay.faults = ddmin(scripted.replay.faults, oracle, &out.stats, max_tests);
  return out;
}

} // namespace tsn::check
