// tsnfta_fuzz: randomized fault-campaign fuzzer with invariant oracles
// and seed shrinking.
//
// Campaign mode (default): derive `seeds` randomized testbeds + fault
// profiles from `master_seed`, run each with the InvariantSuite attached,
// and report a deterministic verdict table (byte-identical for any
// threads=). On the first failing case, write a self-contained replay
// file and -- unless shrink=0 -- delta-debug the fault schedule down to a
// minimal reproducer (<case>.min.replay).
//
//   tsnfta_fuzz seeds=64 threads=4
//   tsnfta_fuzz seeds=256 master_seed=7 duration_s=120 out=findings/
//   tsnfta_fuzz seeds=64 ff=1 horizon=1w threads=4
//
// attacks=1 (campaign and export modes) additionally derives a
// seed-pure adversarial schedule per case (src/attack) and attaches the
// attack-eviction oracle; verdict lines gain "attacks=N evicted=M".
//
// ff=1 runs each case's fault phase under the fast-forward controller
// (DESIGN.md §12): quiescent stretches advance analytically, fault and
// attack edges are barriers. horizon=DURATION ("600s", "90m", "36h",
// "1w") sets the fault-phase length like duration_s= but with a unit
// suffix; derive_case stretches the fault spacing with the horizon, so
// week-scale ff campaigns finish in minutes of wall clock.
//
// Replay mode: re-run one saved case (campaign finding or corpus file)
// and print its verdict; exit 1 if it still fails.
//
//   tsnfta_fuzz replay=tests/corpus/near_quorum_loss.replay
//   tsnfta_fuzz replay=finding.replay shrink=1
//
// Export mode: run one derived case and save its scripted twin as a
// replay file regardless of verdict -- how interesting passing cases get
// promoted into tests/corpus/.
//
//   tsnfta_fuzz export=83 out=tests/corpus name=burst_kill
//
// Exit codes: 0 all cases clean, 1 invariant violation(s) found, 2 usage.
#include <algorithm>
#include <cstdio>
#include <string>

#include "check/fuzz.hpp"
#include "util/config.hpp"
#include "util/log.hpp"
#include "util/str.hpp"

using namespace tsn;

namespace {

void print_violations(const check::CaseResult& r, std::size_t limit = 8) {
  const std::size_t n = std::min(limit, r.violations.size());
  for (std::size_t i = 0; i < n; ++i) {
    const check::Violation& v = r.violations[i];
    std::printf("    [%s] t=%lld ms: %s\n", v.invariant.c_str(),
                (long long)(v.t_ns / 1'000'000), v.message.c_str());
  }
  if (r.violations.size() > n) {
    std::printf("    ... and %zu more\n", r.violations.size() - n);
  }
}

int shrink_and_write(const check::FuzzCase& c, const std::string& stem) {
  std::printf("shrinking %s (each probe is a full re-run)...\n", stem.c_str());
  const check::ShrinkOutcome sh = check::shrink_case(c);
  if (!sh.reproduced) {
    std::printf("  scripted twin did not reproduce [%s]; kept the un-shrunk schedule\n",
                sh.target_invariant.c_str());
    return 1;
  }
  const std::string min_path = stem + ".min.replay";
  check::write_replay(min_path, sh.minimized);
  std::printf("  %zu -> %zu faults in %zu probe runs, target [%s] -> %s\n",
              sh.stats.initial_size, sh.stats.final_size, sh.stats.tests_run,
              sh.target_invariant.c_str(), min_path.c_str());
  return 1;
}

int run(const util::Config& cli) {
  util::set_log_level(util::parse_log_level(cli.get_string("log", "warn")));
  const bool do_shrink = cli.get_bool("shrink", true);
  const bool fast_forward = cli.get_bool("ff", false);

  // horizon= ("600s", "90m", "36h", "1w") and duration_s= are the same
  // knob; horizon wins when both are given.
  std::int64_t duration_ns = cli.get_int("duration_s", 120) * 1'000'000'000LL;
  if (cli.has("horizon")) duration_ns = util::parse_duration_ns(cli.get_string("horizon"));

  // ---- replay mode -------------------------------------------------------
  if (cli.has("replay")) {
    const std::string path = cli.get_string("replay");
    cli.reject_unread();
    check::FuzzCase c;
    try {
      c = check::load_replay(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tsnfta_fuzz: %s\n", e.what());
      return 2;
    }
    if (fast_forward) c.fast_forward = true;
    std::printf("replaying %s (seed %llu, %zu ECDs, f=%d, %zu scripted faults%s)\n", path.c_str(),
                (unsigned long long)c.scenario.seed, c.scenario.num_ecds, c.scenario.fta_f,
                c.replay.size(), c.fast_forward ? ", ff" : "");
    const check::CaseResult r = check::run_case(c);
    std::printf("verdict: %s (kills=%llu, Pi=%.2f us)\n", r.summary.c_str(),
                (unsigned long long)r.injector_stats.total_kills, r.bound_ns / 1000.0);
    if (!r.failed()) return 0;
    print_violations(r);
    if (do_shrink && !r.violations.empty()) {
      std::string stem = path;
      const std::size_t dot = stem.rfind(".replay");
      if (dot != std::string::npos) stem = stem.substr(0, dot);
      return shrink_and_write(c, stem);
    }
    return 1;
  }

  // ---- export mode -------------------------------------------------------
  if (cli.has("export")) {
    const std::uint64_t index = static_cast<std::uint64_t>(cli.get_int("export", 0));
    const std::uint64_t master_seed = static_cast<std::uint64_t>(cli.get_int("master_seed", 1));
    const std::string out_dir = cli.get_string("out", ".");
    const bool with_attacks = cli.get_bool("attacks", false);
    const std::string name = cli.get_string(
        "name", util::format("fuzz_%llu_%llu", (unsigned long long)master_seed,
                             (unsigned long long)index));
    cli.reject_unread();
    check::FuzzCase c = check::derive_case(master_seed, index, duration_ns, with_attacks);
    c.fast_forward = fast_forward;
    const check::CaseResult r = check::run_case(c);
    std::printf("case %llu: seed=%llu ecds=%zu f=%d kills=%llu verdict=%s\n",
                (unsigned long long)index, (unsigned long long)c.scenario.seed, c.scenario.num_ecds,
                c.scenario.fta_f, (unsigned long long)r.injector_stats.total_kills,
                r.summary.c_str());
    if (!r.brought_up) return 1;
    // Persist the scripted twin: the saved schedule is exactly the fault
    // sequence this run executed, so the corpus file stays schedule-exact
    // even if the injector's RNG streams change later.
    check::FuzzCase scripted = c;
    scripted.replay = check::schedule_from_events(r.events);
    if (with_attacks && do_shrink) {
      std::printf("shrinking the fault schedule around the attack verdicts...\n");
      const check::ShrinkOutcome sh = check::shrink_attack_case(scripted);
      if (sh.reproduced) {
        scripted = sh.minimized;
        std::printf("  %zu -> %zu faults in %zu probe runs, signature [%s]\n",
                    sh.stats.initial_size, sh.stats.final_size, sh.stats.tests_run,
                    sh.target_invariant.c_str());
      } else {
        std::printf("  signature did not reproduce scripted; kept the un-shrunk schedule\n");
      }
    }
    const std::string path = out_dir + "/" + name + ".replay";
    check::write_replay(path, scripted);
    std::printf("exported %zu scripted faults -> %s\n", scripted.replay.size(), path.c_str());
    return r.failed() ? 1 : 0;
  }

  // ---- campaign mode -----------------------------------------------------
  check::CampaignConfig cfg;
  cfg.master_seed = static_cast<std::uint64_t>(cli.get_int("master_seed", 1));
  cfg.num_cases = static_cast<std::size_t>(cli.get_int_at_least("seeds", 64, 1));
  cfg.threads = static_cast<std::size_t>(cli.get_int_at_least("threads", 1, 0));
  cfg.duration_ns = duration_ns;
  cfg.attacks = cli.get_bool("attacks", false);
  cfg.fast_forward = fast_forward;
  const std::string out_dir = cli.get_string("out", ".");
  cli.reject_unread();

  std::printf("fuzz campaign: %zu cases from master_seed=%llu, %llds fault phase each%s%s\n",
              cfg.num_cases, (unsigned long long)cfg.master_seed,
              (long long)(cfg.duration_ns / 1'000'000'000LL),
              cfg.attacks ? ", adversarial schedules armed" : "",
              cfg.fast_forward ? ", fast-forward on" : "");
  const check::CampaignResult result = check::run_campaign(cfg);
  std::fputs(result.summary_text().c_str(), stdout);

  if (result.failures == 0) return 0;

  // Write a replay for every failing case; shrink the first.
  int rc = 1;
  bool shrunk = false;
  for (const check::CaseResult& r : result.cases) {
    if (!r.failed()) continue;
    std::printf("\ncase %llu FAILED: %s\n", (unsigned long long)r.index, r.summary.c_str());
    print_violations(r);
    if (!r.brought_up) continue; // no schedule to persist
    check::FuzzCase c = check::derive_case(cfg.master_seed, r.index, cfg.duration_ns, cfg.attacks);
    c.fast_forward = cfg.fast_forward;
    const std::string stem =
        util::format("%s/fuzz_%llu_%llu", out_dir.c_str(), (unsigned long long)cfg.master_seed,
                     (unsigned long long)r.index);
    // Persist the scripted twin so the replay is schedule-exact even if
    // injector RNG streams change later.
    check::FuzzCase scripted = c;
    scripted.replay = check::schedule_from_events(r.events);
    check::write_replay(stem + ".replay", scripted);
    std::printf("  replay -> %s.replay\n", stem.c_str());
    if (do_shrink && !shrunk && !r.violations.empty()) {
      shrink_and_write(c, stem);
      shrunk = true;
    }
  }
  return rc;
}

} // namespace

int main(int argc, char** argv) {
  // Malformed key=value, a key the chosen mode does not read or a number
  // that does not parse whole exits 2 with the usage line instead of
  // aborting or running defaults. Every option is read before any case runs.
  try {
    return run(util::Config::from_args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "usage: tsnfta_fuzz [key=value ...]   (%s)\n", e.what());
    return 2;
  }
}
