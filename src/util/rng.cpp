#include "util/rng.hpp"

#include <cmath>

namespace dnnlife::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) noexcept {
  // Seed the four state words via SplitMix64 as recommended by the authors.
  std::uint64_t s = seed;
  for (auto& word : state_) {
    s = splitmix64(s);
    word = s;
  }
  // A theoretically possible all-zero state would be a fixed point.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Xoshiro256ss::next() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Xoshiro256ss::next_double() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Xoshiro256ss::next_below(std::uint64_t bound) noexcept {
  if (bound <= 1) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Xoshiro256ss::next_bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Xoshiro256ss::next_gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  const double u1 = 1.0 - next_double();
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * 3.14159265358979323846 * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Xoshiro256ss::next_laplace(double scale) noexcept {
  const double u = next_double() - 0.5;
  const double sign = u < 0 ? -1.0 : 1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::abs(u));
}

std::uint64_t Xoshiro256ss::next_binomial(std::uint64_t n, double p) noexcept {
  if (p <= 0.0 || n == 0) return 0;
  if (p >= 1.0) return n;
  if (n <= 64) {
    // Exact: count successes among n Bernoulli trials, vectorised through
    // one 64-bit draw per 64-trial chunk would bias; keep per-trial draws.
    std::uint64_t count = 0;
    for (std::uint64_t i = 0; i < n; ++i) count += next_double() < p ? 1u : 0u;
    return count;
  }
  if (static_cast<double>(n) * p < 30.0 || static_cast<double>(n) * (1 - p) < 30.0) {
    // Skewed tail: exact per-trial loop is still affordable for the sizes
    // this library uses (n is an inference count, typically <= 10^4).
    std::uint64_t count = 0;
    for (std::uint64_t i = 0; i < n; ++i) count += next_double() < p ? 1u : 0u;
    return count;
  }
  // Normal approximation with continuity correction.
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  const double draw = std::round(mean + sd * next_gaussian());
  if (draw < 0.0) return 0;
  if (draw > static_cast<double>(n)) return n;
  return static_cast<std::uint64_t>(draw);
}

double inverse_normal_cdf(double p) {
  DNNLIFE_EXPECTS(p > 0.0 && p < 1.0, "inverse_normal_cdf domain");
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;
  double q = 0.0;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

double CounterRng::gaussian_of_draw(std::uint64_t draw) noexcept {
  return inverse_normal_cdf(open_uniform(draw));
}

}  // namespace dnnlife::util
