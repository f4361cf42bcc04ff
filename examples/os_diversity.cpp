// OS diversification vs a kernel-exploit attacker.
//
// Runs the same two-exploit attack twice: once against a monoculture
// (every virtual GM on the exploitable Linux 4.19.1) and once against a
// diversified deployment (only one GM vulnerable). With identical kernels
// the attacker owns two GMs, defeats f = 1 and the clocks fall apart; with
// diversity the second exploit bounces and the FTA masks the single
// Byzantine GM.
//
//   $ ./os_diversity
#include <cstdio>

#include "attack/attack.hpp"
#include "experiments/harness.hpp"
#include "experiments/report.hpp"

using namespace tsn;
using namespace tsn::sim::literals;

namespace {

struct Outcome {
  std::size_t exploits = 0;
  double avg_ns = 0;
  double max_ns = 0;
  double holds = 0;
};

Outcome attack_run(const std::vector<std::string>& kernels) {
  experiments::ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.gm_kernels = kernels;
  experiments::Scenario scenario(cfg);
  experiments::ExperimentHarness harness(scenario);
  harness.bring_up();
  const auto cal = harness.calibrate();

  // CVE-2018-18955 on two GMs; a rooted GM shifts its pOTs by -24 us.
  attack::AttackDriver attacker;
  attacker.arm(scenario, {{.kind = attack::AttackKind::kKernelExploit,
                           .ecd = 3,
                           .start_ns = 2_min,
                           .magnitude = -24'000.0},
                          {.kind = attack::AttackKind::kKernelExploit,
                           .ecd = 0,
                           .start_ns = 6_min,
                           .magnitude = -24'000.0}});
  harness.run_measured(20_min);

  Outcome out;
  out.exploits = attacker.exploits_rooted();
  out.avg_ns = scenario.probe().series().stats().mean();
  out.max_ns = scenario.probe().series().stats().max();
  out.holds = experiments::bound_holding_fraction(scenario.probe().series(), cal.bound.pi_ns,
                                                  cal.gamma_ns);
  return out;
}

} // namespace

int main() {
  std::printf("attacker: restricted user on two virtual GMs, exploit for CVE-2018-18955\n\n");

  std::printf("case 1: identical kernels (4.19.1 everywhere)...\n");
  const Outcome mono = attack_run({"4.19.1", "4.19.1", "4.19.1", "4.19.1"});
  std::printf("  exploits=%zu precision avg=%.3g ns max=%.3g ns bound-held=%.1f%%\n\n",
              mono.exploits, mono.avg_ns, mono.max_ns, 100 * mono.holds);

  std::printf("case 2: diversified kernels (only one GM on 4.19.1)...\n");
  const Outcome diverse = attack_run({"5.4.0", "5.10.0", "5.15.0", "4.19.1"});
  std::printf("  exploits=%zu precision avg=%.3g ns max=%.3g ns bound-held=%.1f%%\n\n",
              diverse.exploits, diverse.avg_ns, diverse.max_ns, 100 * diverse.holds);

  const bool shape_ok = mono.exploits == 2 && mono.holds < 1.0 && diverse.exploits == 1 &&
                        diverse.holds == 1.0;
  std::printf("conclusion: %s\n",
              shape_ok
                  ? "monoculture lost synchronization; diversification preserved the bound"
                  : "UNEXPECTED outcome, see numbers above");
  return shape_ok ? 0 : 1;
}
