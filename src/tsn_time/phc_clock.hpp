// PTP hardware clock (PHC) model, e.g. the Intel i210's SYSTIM.
//
// The PHC counts oscillator ticks scaled by a servo-programmable frequency
// adjustment (the i210's TIMINCA addend). It supports the same operations
// LinuxPTP uses through the PHC char device: clock_gettime, clock_adjtime
// with ADJ_FREQUENCY, and offset steps. Hardware rx/tx timestamps are PHC
// reads with a small timestamping jitter.
#pragma once

#include <cstdint>
#include <string>

#include "sim/simulation.hpp"
#include "tsn_time/oscillator.hpp"

namespace tsn::time {

struct PhcModel {
  OscillatorModel oscillator;
  /// Stddev of HW timestamp error, ns (PHY latching + quantization).
  double timestamp_jitter_ns = 8.0;
  /// Max frequency adjustment the servo may program, ppb (linuxptp default
  /// queries the driver; igb reports 62499999 ppb, we model a sane bound).
  double max_freq_adj_ppb = 62'499'999.0;
};

class PhcClock {
 public:
  PhcClock(sim::Simulation& sim, const PhcModel& model, const std::string& name);

  PhcClock(const PhcClock&) = delete;
  PhcClock& operator=(const PhcClock&) = delete;

  /// clock_gettime(PHC) at the current simulation time.
  std::int64_t read();

  /// A hardware rx/tx timestamp: PHC read plus timestamping jitter.
  std::int64_t hw_timestamp();

  /// ADJ_FREQUENCY: set the servo's frequency adjustment (ppb, clamped).
  void adj_frequency(double ppb);
  double freq_adj_ppb() const { return freq_adj_ppb_; }

  /// Step the clock by delta_ns (linuxptp "clockadj_step").
  void step(std::int64_t delta_ns);

  /// Integrate the clock up to the current simulation time through the
  /// oscillator's O(1) analytic path (Oscillator::advance_coarse) instead
  /// of quantum-by-quantum. The fast-forward stepper calls this on every
  /// clock it touches -- and on the whole world at window exit -- so that
  /// no clock ever pays a multi-minute lazy integration on its first
  /// post-window read. A no-op when the clock is already current.
  void catch_up_coarse();

  /// OS-timer manipulation (attack library): a hidden extra rate applied
  /// on top of oscillator drift and the servo's adjustment, modelling a
  /// compromised clock driver silently skewing the victim's timebase.
  /// The servo chases it like real drift but never sees it.
  void set_drift_attack(double extra_ppm);
  void clear_drift_attack() { set_drift_attack(0.0); }
  double drift_attack_ppm() const { return atk_drift_ppm_; }

  /// Current oscillator frequency error (hidden from the protocol stack;
  /// exposed for experiment instrumentation only).
  double true_drift_ppm() const { return osc_.drift_ppm(); }

  /// Effective rate d(PHC)/d(true time) right now (instrumentation only).
  double effective_rate() const;

  const std::string& name() const { return name_; }

  /// Snapshot support: oscillator, timestamp RNG, accumulator and rates.
  /// save_state first advances the clock to now() so capture-and-continue
  /// and restore resume from bit-identical integration state.
  void save_state(sim::StateWriter& w);
  void load_state(sim::StateReader& r);

 private:
  void advance_to_now();

  sim::Simulation& sim_;
  PhcModel model_;
  std::string name_;
  Oscillator osc_;
  util::NormalStream ts_rng_;
  long double value_ns_ = 0.0L;
  double freq_adj_ppb_ = 0.0;
  double atk_drift_ppm_ = 0.0;
};

} // namespace tsn::time
