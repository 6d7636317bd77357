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

}  // namespace dnnlife::util
