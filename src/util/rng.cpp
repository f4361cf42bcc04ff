#include "util/rng.hpp"

#include <algorithm>
#include <bit>
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

/// canonical()'s value for a word already drawn, written so that a loop
/// over words vectorizes on baseline x86-64, which has no packed 64-bit
/// integer conversion: each 32-bit half is or-ed into the significand of
/// a power of two (2^84 for the high half, 2^52 for the low one), and
/// subtracting that power leaves the half's value exactly. The add is the
/// one rounding step, as in u64_to_double().
inline double canonical_of(std::uint64_t u) {
  const double hi = std::bit_cast<double>(0x4530000000000000ULL | (u >> 32)) - 0x1p84;
  const double lo = std::bit_cast<double>(0x4330000000000000ULL | (u & 0xffffffffULL)) - 0x1p52;
  const double r = (hi + lo) * 0x1p-64;
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

void Mt19937_64::fill(result_type* out, std::size_t n) {
  while (n > 0) {
    if (index_ >= kStateWords) refill();
    const std::size_t take = std::min(n, kStateWords - index_);
    const std::uint64_t* words = state_.data() + index_;
    for (std::size_t i = 0; i < take; ++i) out[i] = temper(words[i]);
    index_ += take;
    out += take;
    n -= take;
  }
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

void NormalStream::refill() {
  // RngStream::normal's polar method, kBlock draws at once. Pairs are
  // taken kBlock - accepted at a time, so the engine never gives up a
  // word past the kBlock-th accepted pair and the next refill resumes
  // where kBlock calls of RngStream::normal would.
  std::array<std::uint64_t, 2 * kBlock> words;
  std::array<double, 2 * kBlock> u;
  std::array<double, kBlock> y;
  std::array<double, kBlock> r2;
  std::size_t accepted = 0;
  while (accepted < kBlock) {
    const std::size_t pairs = kBlock - accepted;
    engine_.fill(words.data(), 2 * pairs);
    for (std::size_t i = 0; i < 2 * pairs; ++i) u[i] = canonical_of(words[i]);
    // Every pair is written to the next free slot, and the slot is kept
    // only when the pair passes the rejection test.
    for (std::size_t i = 0; i < pairs; ++i) {
      const double px = 2.0 * u[2 * i] - 1.0;
      const double py = 2.0 * u[2 * i + 1] - 1.0;
      const double pr2 = px * px + py * py;
      y[accepted] = py;
      r2[accepted] = pr2;
      accepted += static_cast<std::size_t>((pr2 <= 1.0) & (pr2 != 0.0));
    }
  }
  // Independent logs overlap in the pipeline instead of each sitting on
  // the critical path of one draw.
  std::array<double, kBlock> log_r2;
  for (std::size_t i = 0; i < kBlock; ++i) log_r2[i] = std::log(r2[i]);
  for (std::size_t i = 0; i < kBlock; ++i) {
    block_[i] = y[i] * std::sqrt(-2 * log_r2[i] / r2[i]);
  }
  next_ = 0;
}

double BoundedRandomWalk::step(NormalStream& rng) {
  value_ += rng.normal(0.0, step_sigma_);
  // Reflect at the bounds so long runs stay well-mixed instead of sticking.
  if (value_ > bound_) value_ = 2 * bound_ - value_;
  if (value_ < -bound_) value_ = -2 * bound_ - value_;
  if (value_ > bound_) value_ = bound_;   // pathological large step
  if (value_ < -bound_) value_ = -bound_;
  return value_;
}

} // namespace tsn::util
