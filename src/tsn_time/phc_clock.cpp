#include "tsn_time/phc_clock.hpp"

#include <algorithm>

#include "sim/persist.hpp"
#include "util/round.hpp"

namespace tsn::time {

PhcClock::PhcClock(sim::Simulation& sim, const PhcModel& model, const std::string& name)
    : sim_(sim),
      model_(model),
      name_(name),
      osc_(model.oscillator, sim.make_rng("osc/" + name)),
      ts_rng_(sim.make_rng("phc-ts/" + name)) {}

void PhcClock::advance_to_now() {
  const long double local_elapsed = osc_.advance(sim_.now());
  value_ns_ += local_elapsed * (1.0L + static_cast<long double>(freq_adj_ppb_) * 1e-9L) *
               (1.0L + static_cast<long double>(atk_drift_ppm_) * 1e-6L);
}

void PhcClock::catch_up_coarse() {
  const long double local_elapsed = osc_.advance_coarse(sim_.now());
  value_ns_ += local_elapsed * (1.0L + static_cast<long double>(freq_adj_ppb_) * 1e-9L) *
               (1.0L + static_cast<long double>(atk_drift_ppm_) * 1e-6L);
}

std::int64_t PhcClock::read() {
  advance_to_now();
  return util::round_i64(value_ns_);
}

std::int64_t PhcClock::hw_timestamp() {
  const double jitter = ts_rng_.normal(0.0, model_.timestamp_jitter_ns);
  return read() + util::round_i64(jitter);
}

void PhcClock::adj_frequency(double ppb) {
  advance_to_now();
  freq_adj_ppb_ = std::clamp(ppb, -model_.max_freq_adj_ppb, model_.max_freq_adj_ppb);
}

void PhcClock::set_drift_attack(double extra_ppm) {
  advance_to_now(); // integrate the old rate up to now first
  atk_drift_ppm_ = extra_ppm;
}

void PhcClock::step(std::int64_t delta_ns) {
  advance_to_now();
  value_ns_ += static_cast<long double>(delta_ns);
}

void PhcClock::save_state(sim::StateWriter& w) {
  advance_to_now();
  osc_.save_state(w);
  w.rng(ts_rng_);
  w.ld(value_ns_);
  w.f64(freq_adj_ppb_);
  w.f64(atk_drift_ppm_);
}

void PhcClock::load_state(sim::StateReader& r) {
  osc_.load_state(r);
  r.rng(ts_rng_);
  value_ns_ = r.ld();
  freq_adj_ppb_ = r.f64();
  atk_drift_ppm_ = r.f64();
}

double PhcClock::effective_rate() const {
  return (1.0 + osc_.drift_ppm() * 1e-6) * (1.0 + freq_adj_ppb_ * 1e-9);
}

} // namespace tsn::time
