#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

namespace tsn::util {

namespace {

/// std::generate_canonical<double, 53> over one engine word, as libstdc++
/// computes it: the word rounded to double, scaled by 2^-64 (exact), and
/// clamped to nextafter(1, 0) when the rounding reached 1.
inline double canonical(Mt19937_64& engine) {
  const double r = u64_to_double(engine()) * 0x1p-64;
  return r < 1.0 ? r : 0x1.fffffffffffffp-1;
}

} // namespace

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Mt19937_64::Mt19937_64(std::seed_seq& seq) {
  // [rand.eng.mers]: two 32-bit seed_seq words per state word, low first;
  // an all-zero state (top 33 bits of word 0 included) becomes 2^63.
  std::array<std::uint32_t, 2 * kStateWords> seeds{};
  seq.generate(seeds.begin(), seeds.end());
  for (std::size_t i = 0; i < kStateWords; ++i) {
    state_[i] = seeds[2 * i] | (std::uint64_t{seeds[2 * i + 1]} << 32);
  }
  const bool zero = (state_[0] >> 31) == 0 &&
                    std::all_of(state_.begin() + 1, state_.end(), [](std::uint64_t w) { return w == 0; });
  if (zero) state_[0] = std::uint64_t{1} << 63;
}

void Mt19937_64::refill() {
  constexpr std::size_t kShift = 156; // the recurrence's middle offset m
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
  // -(y & 1) is all ones or zero: the conditional xor of the matrix row
  // without the data-dependent branch `(y & 1) ? a : 0` compiles to.
  const auto twist = [](std::uint64_t upper, std::uint64_t lower) {
    const std::uint64_t y = (upper & kUpper) | (lower & ~kUpper);
    return (y >> 1) ^ (-(y & 1) & kMatrixA);
  };
  constexpr std::size_t n = kStateWords;
  for (std::size_t k = 0; k < n - kShift; ++k) {
    state_[k] = state_[k + kShift] ^ twist(state_[k], state_[k + 1]);
  }
  for (std::size_t k = n - kShift; k < n - 1; ++k) {
    state_[k] = state_[k + kShift - n] ^ twist(state_[k], state_[k + 1]);
  }
  state_[n - 1] = state_[kShift - 1] ^ twist(state_[n - 1], state_[0]);
  index_ = 0;
}

RngStream::RngStream(std::uint64_t master_seed, std::string_view stream_name)
    : RngStream(std::seed_seq{master_seed, fnv1a64(stream_name),
                              std::uint64_t{0x9e3779b97f4a7c15ULL}}) {}

double RngStream::uniform01() {
  return canonical(engine_);
}

double RngStream::uniform(double lo, double hi) {
  return canonical(engine_) * (hi - lo) + lo;
}

std::int64_t RngStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  // libstdc++'s uniform_int_distribution for a full 64-bit engine: the
  // whole word when the range spans 2^64 values, otherwise Lemire's
  // multiply-and-reject over 128-bit products.
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  std::uint64_t offset = 0;
  if (range == ~std::uint64_t{0}) {
    offset = engine_();
  } else {
    using u128 = unsigned __int128;
    const std::uint64_t n = range + 1;
    u128 product = u128{engine_()} * n;
    auto low = static_cast<std::uint64_t>(product);
    if (low < n) {
      const std::uint64_t threshold = -n % n;
      while (low < threshold) {
        product = u128{engine_()} * n;
        low = static_cast<std::uint64_t>(product);
      }
    }
    offset = static_cast<std::uint64_t>(product >> 64);
  }
  return static_cast<std::int64_t>(offset + static_cast<std::uint64_t>(lo));
}

double RngStream::normal(double mean, double stddev) {
  // Marsaglia's polar method as a fresh std::normal_distribution runs it:
  // the same (2u - 1) pairs and rejection test; the second variate of the
  // accepted pair is discarded.
  double x = 0.0;
  double y = 0.0;
  double r2 = 0.0;
  do {
    x = 2.0 * canonical(engine_) - 1.0;
    y = 2.0 * canonical(engine_) - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2 * std::log(r2) / r2);
  return y * mult * stddev + mean;
}

double RngStream::exponential(double mean) {
  return -std::log(1.0 - canonical(engine_)) / (1.0 / mean);
}

bool RngStream::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double BoundedRandomWalk::step(RngStream& rng) {
  value_ += rng.normal(0.0, step_sigma_);
  // Reflect at the bounds so long runs stay well-mixed instead of sticking.
  if (value_ > bound_) value_ = 2 * bound_ - value_;
  if (value_ < -bound_) value_ = -2 * bound_ - value_;
  if (value_ > bound_) value_ = bound_;   // pathological large step
  if (value_ < -bound_) value_ = -bound_;
  return value_;
}

} // namespace tsn::util
