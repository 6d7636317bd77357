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

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>

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

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// Counter-based generator: value_at(i) = mix(seed, i). Stateless reads.
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t seed) noexcept
      : key_(splitmix64(seed ^ 0x243f6a8885a308d3ULL)) {}

  /// 64 random bits for index `i`.
  std::uint64_t bits_at(std::uint64_t i) const noexcept {
    return splitmix64(key_ + i);
  }

  /// The 53-bit draw of index `i`, in [0, 2^53): double_at() and
  /// laplace_of_draw() are functions of it alone.
  std::uint64_t draw_at(std::uint64_t i) const noexcept {
    return bits_at(i) >> 11;
  }

  /// draw_at(first + k) into out[k] for every k: a loop the compiler
  /// vectorises, for hot paths that read many consecutive draws.
  void draws_at(std::uint64_t first,
                std::span<std::uint64_t> out) const noexcept {
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = draw_at(first + k);
  }

  /// Uniform double in [0, 1) for index `i`.
  double double_at(std::uint64_t i) const noexcept {
    return static_cast<double>(draw_at(i)) * 0x1.0p-53;
  }

  /// Laplace(0, scale) of a 53-bit draw; non-decreasing in `draw` up to
  /// the libm `log` error (see dnn::WeightStreamer::kDrawGuard). The sign
  /// select is exact — (u < 0 ? scale : -scale) equals -scale * sign(u).
  static double laplace_of_draw(std::uint64_t draw, double scale) noexcept {
    const double u = open_uniform(draw) - 0.5;
    return (u < 0 ? scale : -scale) * std::log(1.0 - 2.0 * std::abs(u));
  }

  /// The draw as a uniform in the open interval (0, 1), shifted by half a
  /// step. The last draw, 2^53 - 1, maps like 2^53 - 2: its + 0.5 would
  /// round up to 1 (an infinite Laplace weight).
  static double open_uniform(std::uint64_t draw) noexcept {
    constexpr std::uint64_t kLast = (std::uint64_t{1} << 53) - 2;
    return (static_cast<double>(std::min(draw, kLast)) + 0.5) * 0x1.0p-53;
  }

 private:
  std::uint64_t key_;  // the seed's mix, hoisted out of bits_at
};

/// Derive a child seed from a parent seed and a stream label, so that
/// independent modules (layers, rows, policies) get decorrelated streams.
constexpr std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t stream) noexcept {
  return splitmix64(parent ^ splitmix64(stream * 0x9e3779b97f4a7c15ULL + 0x1234abcdULL));
}

}  // namespace dnnlife::util
