// Round-half-away-from-zero to int64 without a libm call.
//
// Every hop of the model rounds a double (timestamp jitter, link and
// residence delays, servo offsets) or the PHC's long double accumulator to
// integer nanoseconds. std::llround / std::llroundl are out-of-line libm
// calls on baseline x86-64; these inline helpers give the same result bit
// for bit. tests/util/round_test.cpp pins them against libm as the
// reference.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace tsn::util {

/// std::llround(x). Truncates, then steps one away from zero when the
/// remainder is at least one half. Below 2^62 the truncation is exact and
/// so is the remainder (x's own fraction bits), so ties round exactly as
/// llround rounds them. |x| >= 2^62, infinities and NaN defer to libm.
inline std::int64_t round_i64(double x) {
  constexpr double kLimit = 0x1p62;
  if (!(x > -kLimit && x < kLimit)) [[unlikely]] {
    return static_cast<std::int64_t>(std::llround(x));
  }
  const auto t = static_cast<std::int64_t>(x);
  const double r = x - static_cast<double>(t);
  return t + static_cast<std::int64_t>(r >= 0.5) - static_cast<std::int64_t>(r <= -0.5);
}

/// std::llroundl(x), by the same steps on the x87 extended format's fields.
/// Converting a long double to an integer in C++ truncates, which makes
/// the x87 switch its rounding mode twice per call: slower than llroundl.
inline std::int64_t round_i64(long double x) {
  if constexpr (std::numeric_limits<long double>::digits != 64) {
    return static_cast<std::int64_t>(std::llroundl(x));
  } else {
    std::uint64_t mant = 0; // the explicit integer bit is bit 63
    std::uint16_t sign_exp = 0;
    std::memcpy(&mant, &x, sizeof mant);
    std::memcpy(&sign_exp, reinterpret_cast<const unsigned char*>(&x) + sizeof mant,
                sizeof sign_exp);
    const int e = (sign_exp & 0x7FFF) - 16383; // 2^e <= |x| < 2^(e+1)
    if (e >= 62) [[unlikely]] {
      return static_cast<std::int64_t>(std::llroundl(x));
    }
    if (e < -1) return 0; // |x| < 1/2, zeros and subnormals included
    // |x| = mant * 2^(e-63): the whole part is mant >> (63 - e), and the
    // remainder is at least one half exactly when bit 62 - e is set.
    const std::uint64_t whole = e < 0 ? 0 : mant >> (63 - e);
    const auto r = static_cast<std::int64_t>(whole + ((mant >> (62 - e)) & 1));
    return (sign_exp & 0x8000) != 0 ? -r : r;
  }
}

} // namespace tsn::util
