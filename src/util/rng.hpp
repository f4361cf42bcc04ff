// Deterministic random-number streams.
//
// Every stochastic component of the simulation draws from its own named
// RngStream derived from (master seed, stream name). This makes runs
// reproducible and, crucially, makes a component's random sequence
// independent of the global event interleaving: adding a new component does
// not perturb the draws of existing ones.
//
// The engine and the distributions are written out here rather than taken
// from <random> because every hop of the model draws Gaussian noise: the
// libstdc++ versions compile to two data-dependent branches per engine word
// on baseline x86-64 (DESIGN.md §6c). Every draw is bit-identical to
// std::mt19937_64 feeding the libstdc++ distributions; tests/util/rng_test.cpp
// pins that against the standard library as the reference.
//
// Streams that only ever draw normals (oscillator wander, HW-timestamp,
// link and switch jitter) are NormalStreams: they compute their variates
// NormalStream::kBlock at a time, off the critical path of the hop that
// asks for one, and still return exactly what RngStream::normal would.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>

namespace tsn::util {

/// 64-bit FNV-1a hash, used to derive per-stream seeds from names.
std::uint64_t fnv1a64(std::string_view s);

/// static_cast<double>(u), rounded to nearest-even, without the sign test
/// that baseline x86-64 compiles the unsigned conversion to. Both 32-bit
/// halves convert exactly, so the add is the one rounding step.
inline double u64_to_double(std::uint64_t u) {
  const double hi = static_cast<double>(static_cast<std::int64_t>(u >> 32)) * 0x1p32;
  const double lo = static_cast<double>(static_cast<std::int64_t>(u & 0xffffffffu));
  return hi + lo;
}

/// MT19937-64: the engine std::mt19937_64 specifies, with the same seed_seq
/// seeding, recurrence, tempering and output sequence. The refill's twist
/// is branch-free. A UniformRandomBitGenerator, so std::shuffle and the std
/// distributions accept it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;
  using State = std::array<std::uint64_t, kStateWords>;

  explicit Mt19937_64(std::seed_seq& seq);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ >= kStateWords) refill();
    return temper(state_[index_++]);
  }

  /// The next n words, as n calls of operator() would return them, in one
  /// loop over the state per refill.
  void fill(result_type* out, std::size_t n);

  /// Raw state for snapshots: the state words and the index of the next
  /// word to temper (kStateWords means a refill is due).
  const State& words() const { return state_; }
  std::size_t index() const { return index_; }
  /// Restore a state taken from words()/index(); index <= kStateWords.
  void set_state(const State& words, std::size_t index) {
    state_ = words;
    index_ = index;
  }

 private:
  static std::uint64_t temper(std::uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }
  void refill();

  State state_{};
  std::size_t index_ = kStateWords;
};

class RngStream {
 public:
  RngStream() : RngStream(0, "default") {}
  RngStream(std::uint64_t master_seed, std::string_view stream_name);

  /// Uniform in [0, 1).
  double uniform01();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev);
  /// Exponential with the given mean (mean = 1/lambda).
  double exponential(double mean);
  /// Bernoulli with probability p.
  bool chance(double p);

  /// Underlying engine, for std algorithms and snapshots.
  Mt19937_64& engine() { return engine_; }
  const Mt19937_64& engine() const { return engine_; }

 private:
  explicit RngStream(std::seed_seq&& seq) : engine_(seq) {}

  Mt19937_64 engine_;
};

/// A stream that draws only normals. Each refill runs the polar method for
/// the next kBlock accepted pairs in one pass -- conversion, rejection,
/// then the logs, divides and square roots in straight loops -- and keeps
/// the unscaled variates z = y * sqrt(-2 ln r2 / r2). normal(mean, stddev)
/// returns z * stddev + mean, the value a fresh std::normal_distribution
/// computes for that draw, so the sequence equals RngStream::normal's on
/// the same engine. Not for streams that mix distributions: the block
/// takes engine words ahead of the draws that consume them.
class NormalStream {
 public:
  static constexpr std::size_t kBlock = 32;
  using Block = std::array<double, kBlock>;

  NormalStream(std::uint64_t master_seed, std::string_view stream_name)
      : NormalStream(RngStream(master_seed, stream_name)) {}
  /// Continues `s`'s engine: the draws equal s.normal() on a copy of `s`.
  explicit NormalStream(const RngStream& s) : engine_(s.engine()) {}

  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev) {
    if (next_ == kBlock) refill();
    return block_[next_++] * stddev + mean;
  }

  /// Raw state for snapshots: the engine, the block and the index of the
  /// next unread variate (kBlock means a refill is due).
  const Mt19937_64& engine() const { return engine_; }
  const Block& block() const { return block_; }
  std::size_t cursor() const { return next_; }
  /// Restore a state taken from the accessors above; cursor <= kBlock.
  void set_state(const Mt19937_64::State& words, std::size_t index, const Block& block,
                 std::size_t cursor) {
    engine_.set_state(words, index);
    block_ = block;
    next_ = cursor;
  }

 private:
  void refill();

  Mt19937_64 engine_;
  Block block_{};
  std::size_t next_ = kBlock;
};

/// A random walk clamped to [-bound, +bound]; used for oscillator wander.
class BoundedRandomWalk {
 public:
  BoundedRandomWalk(double initial, double step_sigma, double bound)
      : value_(initial), step_sigma_(step_sigma), bound_(bound) {}

  /// Advance one step; reflects at the bounds.
  double step(NormalStream& rng);
  double value() const { return value_; }
  /// Restore a previously observed position (snapshot/rollback).
  void set_value(double v) { value_ = v; }

 private:
  double value_;
  double step_sigma_;
  double bound_;
};

} // namespace tsn::util
