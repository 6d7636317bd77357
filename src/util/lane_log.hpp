// A branch-free natural log for lane loops.
//
// fdlibm's e_log.c: split x = 2^k (1 + f) with 1 + f in [sqrt(2)/2,
// sqrt(2)), then log(x) = k ln2_hi + (f - (hfsq - (s (hfsq + R) + k ln2_lo)))
// with s = f / (2 + f), hfsq = f^2 / 2 and R a degree-14 minimax
// polynomial in s. fdlibm branches only to pick a cheaper form for small
// f and k = 0; the hfsq form is the accurate one for every f, so it is the
// only form here. Plain doubles and integer bit operations, no table and no
// branch, so a loop over lane_log() vectorises (GCC 12 does at AVX2 and
// AVX-512) under -ffp-contract=off; contraction would change the bits.
#pragma once

#include <bit>
#include <cstdint>

namespace dnnlife::util {

/// Worst error of lane_log() against std::log, in ulp, over normal inputs
/// in (0, 1] (tests/test_util_lane_log.cpp measures it; fdlibm proves
/// < 1 ulp against the exact log).
inline constexpr std::uint64_t kLaneLogMaxUlp = 1;

/// log(x) for normal x in (0, 1]. Subnormal, negative, zero, infinite and
/// NaN inputs give wrong results, not traps.
inline double lane_log(double x) noexcept {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  // High mantissa bits; `up` is 2^20 when the mantissa is >= sqrt(2), and
  // then halves 1 + f into range and adds one to k.
  const std::uint64_t high = (bits >> 32) & 0x000f'ffff;
  const std::uint64_t up = (high + 0x9'5f64) & 0x10'0000;
  const double f = std::bit_cast<double>(((high | (up ^ 0x3ff0'0000)) << 32) |
                                         (bits & 0xffff'ffff)) -
                   1.0;
  // k + 1023 in the low mantissa bits of 2^52: an exact int-to-double that
  // needs no 64-bit conversion instruction.
  const std::uint64_t biased_k = (bits >> 52) + (up >> 20);
  const double k = std::bit_cast<double>(0x4330'0000'0000'0000 | biased_k) -
                   (0x1.0p52 + 1023.0);
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double r = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7))) +
                   w * (kLg2 + w * (kLg4 + w * kLg6));
  const double hfsq = 0.5 * f * f;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

}  // namespace dnnlife::util
