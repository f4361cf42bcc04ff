// Crystal oscillator model.
//
// The instantaneous frequency error ("drift") is a piecewise-constant,
// bounded random walk: within each wander quantum the rate is constant, at
// quantum boundaries it takes a small normally-distributed step and reflects
// at +/- max_drift_ppm. This reproduces the assumptions behind the paper's
// drift offset term Gamma = 2 * r_max * S with r_max = 5 ppm (IEEE 802.1AS
// requires +/-100 ppm accuracy but the paper uses the 5 ppm figure from the
// literature for the bound).
#pragma once

#include <cmath>
#include <cstdint>

#include "sim/sim_time.hpp"
#include "util/rng.hpp"

namespace tsn::sim {
class StateWriter;
class StateReader;
} // namespace tsn::sim

namespace tsn::time {

struct OscillatorModel {
  /// Initial frequency error in ppm; NaN draws uniformly in [-max, +max].
  double initial_drift_ppm = std::nan("");
  /// Hard bound on |drift|.
  double max_drift_ppm = 5.0;
  /// Random-walk step stddev per wander quantum, in ppm.
  double wander_sigma_ppm = 0.002;
  /// Wander quantum.
  std::int64_t wander_step_ns = 10'000'000; // 10 ms
};

class Oscillator {
 public:
  Oscillator(const OscillatorModel& model, util::RngStream rng);

  /// Integrate oscillator-local elapsed time from the last call up to `to`
  /// (true time). Returns elapsed local nanoseconds as long double so the
  /// caller can accumulate without rounding bias. `to` must be monotonic.
  long double advance(sim::SimTime to);

  /// O(1) analytic advance for the fast-forward stepper (DESIGN.md §12).
  /// Instead of walking every wander quantum, samples the (drift
  /// increment, drift time-integral) pair jointly from the random walk's
  /// closed-form Gaussian distribution -- three normal draws regardless of
  /// span. Statistically equivalent to advance() away from the +/-max
  /// bound (reflection is applied only to the endpoint and the integral's
  /// implied average is clamped), but NOT draw-identical: the RNG stream
  /// advances differently, so trajectories diverge from an advance() run
  /// at the first coarse call. Falls back to advance() for short spans.
  long double advance_coarse(sim::SimTime to);

  double drift_ppm() const { return drift_.value(); }
  sim::SimTime last_advanced() const { return last_; }

  /// Snapshot support: walk position, RNG engine and integration cursor.
  void save_state(sim::StateWriter& w) const;
  void load_state(sim::StateReader& r);

 private:
  long double integrate_segment(std::int64_t dt_ns) const;
  void wander_step();
  /// Reflect a drift value into [-max_drift_ppm, +max_drift_ppm], the same
  /// boundary behaviour the per-step walk has.
  double fold_drift(double v) const;

  OscillatorModel model_;
  util::BoundedRandomWalk drift_;
  /// The constructor's stream after its initial-drift draw.
  util::NormalStream rng_;
  sim::SimTime last_ = sim::SimTime::zero();
  std::int64_t next_wander_at_ns_;
};

} // namespace tsn::time
