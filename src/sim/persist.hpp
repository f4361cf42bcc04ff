// State persistence and fast-forward participation (DESIGN.md §12).
//
// StateWriter/StateReader serialize component state into a flat byte
// archive with named sections and a running FNV-1a content hash. The
// format is process-private (snapshots never leave the process and are
// not versioned); sections exist so a save/load mismatch fails loudly at
// the exact component instead of corrupting everything downstream.
//
// Persistent is the interface every stateful model component implements
// to take part in the two facilities built on top:
//
//   * SimSnapshot (sim/snapshot.hpp): copy-out/copy-in of a whole world
//     at a *component-quiescent* instant -- every live event in the queue
//     is a standing event some component re-creates in load_state(), so
//     the queue itself is never serialized. Used by the incremental ddmin
//     shrinker and the snapshot/rollback property tests.
//   * Fast-forward (sim/fast_forward.hpp): park (cancel timers), skip a
//     quiescent window analytically, shift time-stamped state across the
//     window, resume (re-arm timers phase-aligned).
//
// The quiescence accounting contract: live_events() reports exactly the
// number of live entries this component currently keeps in the event
// queue in its *idle* steady state (periodic chains, the GM's next-Sync
// hop, pending fault/attack edges). Anything unaccounted -- an in-flight
// frame, an ETF launch, a pending probe evaluation -- makes the queue's
// live count exceed the sum and blocks both snapshotting and
// fast-forward entry until it drains. Components therefore only need to
// be honest about their standing events; transients are caught
// structurally.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace tsn::sim {

/// One fast-forwarded window of simulated time.
struct FfWindow {
  std::int64_t from_ns = 0; ///< sim time when the analytic advance began
  std::int64_t to_ns = 0;   ///< sim time after the jump
  std::int64_t span_ns() const { return to_ns - from_ns; }
};

class StateWriter {
 public:
  /// Open a named section; the name is hashed into the stream so a
  /// save/load traversal mismatch is detected at load time.
  void begin_section(std::string_view name);

  void b(bool v) { u8(v ? 1 : 0); }
  void u8(std::uint8_t v) { put(&v, 1); }
  void u16(std::uint16_t v) { put(&v, sizeof v); }
  void u32(std::uint32_t v) { put(&v, sizeof v); }
  void u64(std::uint64_t v) { put(&v, sizeof v); }
  void i64(std::int64_t v) { put(&v, sizeof v); }
  void f64(double v) { put(&v, sizeof v); }
  /// long double as a (hi, lo) double-double pair: deterministic byte
  /// image (no x87 padding garbage) and an exact round trip for any
  /// value with a <= 106-bit significand -- which covers the 64-bit
  /// x87 mantissa of every extended-precision accumulator we persist.
  void ld(long double v) {
    const double hi = static_cast<double>(v);
    const double lo = static_cast<double>(v - static_cast<long double>(hi));
    f64(hi);
    f64(lo);
  }
  void str(std::string_view s) {
    u64(s.size());
    put(s.data(), s.size());
  }
  /// Engine state: the state words and the index of the next word.
  void rng(const util::RngStream& s);
  /// The engine as above, then the variate block and its cursor.
  void rng(const util::NormalStream& s);
  template <typename T>
  void opt_i64(const std::optional<T>& v) {
    b(v.has_value());
    i64(v ? static_cast<std::int64_t>(*v) : 0);
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  /// FNV-1a over everything written so far (section names included).
  std::uint64_t hash() const { return hash_; }

 private:
  void put(const void* p, std::size_t n);
  void engine(const util::Mt19937_64& e);

  std::vector<std::uint8_t> buf_;
  std::uint64_t hash_ = 1469598103934665603ull; // FNV-1a offset basis
};

class StateReader {
 public:
  explicit StateReader(const std::vector<std::uint8_t>& data) : buf_(data) {}

  /// Must mirror the writer's begin_section calls exactly; throws
  /// std::runtime_error naming both sections on mismatch.
  void begin_section(std::string_view name);

  bool b() { return u8() != 0; }
  std::uint8_t u8() {
    std::uint8_t v;
    get(&v, 1);
    return v;
  }
  std::uint16_t u16() {
    std::uint16_t v;
    get(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    get(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    get(&v, sizeof v);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v;
    get(&v, sizeof v);
    return v;
  }
  double f64() {
    double v;
    get(&v, sizeof v);
    return v;
  }
  long double ld() {
    const double hi = f64();
    const double lo = f64();
    return static_cast<long double>(hi) + static_cast<long double>(lo);
  }
  std::string str() {
    const std::uint64_t n = u64();
    std::string s(n, '\0');
    get(s.data(), n);
    return s;
  }
  void rng(util::RngStream& s);
  void rng(util::NormalStream& s);
  template <typename T>
  std::optional<T> opt_i64() {
    const bool has = b();
    const std::int64_t v = i64();
    if (!has) return std::nullopt;
    return static_cast<T>(v);
  }

  bool at_end() const { return pos_ == buf_.size(); }

 private:
  void get(void* p, std::size_t n);
  /// Engine words and index; throws on an index past the state.
  std::size_t engine(util::Mt19937_64::State& words);

  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

/// Interface of a snapshottable / fast-forwardable component. Every
/// method has a safe default so pure-data components only implement
/// save/load and event-less components skip the ff hooks.
class Persistent {
 public:
  virtual ~Persistent() = default;

  /// Stable section name (used for archive traversal checking).
  virtual const char* persist_name() const = 0;

  /// Serialize into `w`. Deliberately non-const: capture normalizes
  /// lazily-integrated state (e.g. a PHC advances itself to now()) so
  /// that the capture-and-continue timeline and the restored timeline
  /// resume from bit-identical state -- otherwise the restore-time
  /// catch-up would split an oscillator integration segment the live
  /// run integrates whole, and long-double rounding could diverge by
  /// an ulp.
  virtual void save_state(StateWriter& w) = 0;
  /// Restore from `r`. Called with sim.now() already restored and the
  /// event queue cleared; the component must re-create its own standing
  /// events (periodic chains, one-shot hops) from the loaded state --
  /// never from stale handles, which the queue clear invalidated.
  virtual void load_state(StateReader& r) = 0;

  // -- Fast-forward participation ------------------------------------------

  /// Live queue entries this component keeps around in its idle steady
  /// state right now (see the accounting contract above).
  virtual std::size_t live_events() const { return 0; }
  /// Cancel all standing events, remembering their phases. After parking,
  /// the component's queued closures must be inert no-ops when popped.
  virtual void ff_park() {}
  /// Shift time-stamped state across the window (called with sim.now()
  /// already at window.to_ns, clocks already advanced analytically).
  virtual void ff_advance(const FfWindow& w) { (void)w; }
  /// Re-create standing events, phase-aligned to the pre-park grid.
  virtual void ff_resume() {}
};

/// First firing time >= `now` on the periodic grid anchored at `due`
/// (the phase remembered at park/save time) with period `period`.
inline std::int64_t align_phase(std::int64_t due, std::int64_t period, std::int64_t now) {
  if (due >= now) return due;
  const std::int64_t behind = now - due;
  const std::int64_t k = (behind + period - 1) / period;
  return due + k * period;
}

} // namespace tsn::sim
