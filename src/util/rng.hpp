// Deterministic random number generation.
//
// Two generators are provided:
//  * Xoshiro256ss  — a fast sequential PRNG used where a stream is natural
//    (policy simulation, TRBG models).
//  * CounterRng    — a counter-based ("random access") generator: the value
//    at index i is a pure function hash(seed, i). This lets the weight
//    streamer produce the i-th weight of a 138M-parameter network without
//    materialising the whole tensor, and guarantees the same weights
//    regardless of traversal order.
//
// All distributions here are deterministic given (seed, index) and are
// independent of the C++ standard library's unspecified distribution
// implementations, so results are reproducible across platforms.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace dnnlife::util {

/// xoshiro256** by Blackman & Vigna: fast, high-quality 64-bit PRNG.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256ss(std::uint64_t seed = 0x5eedULL) noexcept;

  /// Next 64 uniformly random bits.
  std::uint64_t next() noexcept;

  /// UniformRandomBitGenerator interface.
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~std::uint64_t{0}; }

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Bernoulli draw with probability `p` of true.
  bool next_bernoulli(double p) noexcept;

  /// Standard normal via Box-Muller (caches the second deviate).
  double next_gaussian() noexcept;

  /// Laplace(0, scale) via inverse CDF.
  double next_laplace(double scale) noexcept;

  /// Binomial(n, p) draw. Exact (sum of Bernoullis) for small n, normal
  /// approximation with continuity correction and clamping for large n.
  std::uint64_t next_binomial(std::uint64_t n, double p) noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// Counter-based generator: value_at(i) = mix(seed, i). Stateless reads.
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t seed) noexcept : seed_(seed) {}

  /// 64 random bits for index `i`.
  std::uint64_t bits_at(std::uint64_t i) const noexcept {
    return splitmix64(splitmix64(seed_ ^ 0x243f6a8885a308d3ULL) + i);
  }

  /// Uniform double in [0, 1) for index `i`.
  double double_at(std::uint64_t i) const noexcept {
    return static_cast<double>(bits_at(i) >> 11) * 0x1.0p-53;
  }

  /// Standard normal for index `i` (inverse-CDF, Acklam approximation).
  double gaussian_at(std::uint64_t i) const noexcept;

  /// Laplace(0, scale) for index `i` (inverse CDF). Inline: the weight
  /// synthesis loop runs it once per weight. The sign select is exact —
  /// (u < 0 ? scale : -scale) equals -scale * sign(u) bit for bit.
  double laplace_at(std::uint64_t i, double scale) const noexcept {
    const double u =
        (static_cast<double>(bits_at(i) >> 11) + 0.5) * 0x1.0p-53 - 0.5;
    return (u < 0 ? scale : -scale) * std::log(1.0 - 2.0 * std::abs(u));
  }

  std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_;
};

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error < 1.15e-9). `p` must lie in (0, 1).
double inverse_normal_cdf(double p);

/// Derive a child seed from a parent seed and a stream label, so that
/// independent modules (layers, rows, policies) get decorrelated streams.
constexpr std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t stream) noexcept {
  return splitmix64(parent ^ splitmix64(stream * 0x9e3779b97f4a7c15ULL + 0x1234abcdULL));
}

}  // namespace dnnlife::util
