// Synthetic "pre-trained" weight generation.
//
// Substitution (see DESIGN.md): the paper analyses pre-trained ImageNet
// models; offline we synthesise weights whose *distribution* matches what
// training produces — zero-centred, sharply peaked, fan-in-scaled spread.
// Trained CNN weight tensors are well modelled by a Laplacian (default) or
// Gaussian; either reproduces the paper's Fig. 6 per-bit-probability
// profiles (mantissa ~ 0.5, exponent strongly biased, int8-symmetric ~ 0.5,
// int8-asymmetric biased).
//
// Weights are produced by a counter-based RNG: weight(g) is a pure function
// of (seed, network, g), so a 138 M-parameter model streams without being
// materialised, and any traversal order sees identical values.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dnn/network.hpp"
#include "util/rng.hpp"

namespace dnnlife::dnn {

enum class WeightDistribution { kGaussian, kLaplace };

struct WeightGenConfig {
  WeightDistribution distribution = WeightDistribution::kLaplace;
  std::uint64_t seed = 42;
  /// Spread multiplier on top of the He-style sqrt(2 / fan_in) scale.
  double sigma_scale = 1.0;
  /// Tail skew gamma in [0, 1): positive draws are stretched by (1+gamma)
  /// and negative ones compressed by (1-gamma), then renormalised so the
  /// standard deviation stays sigma. Trained weight tensors have skewed
  /// min/max ranges (their |min| != max), which is exactly what makes
  /// asymmetric range-linear quantization produce the biased bit
  /// distributions of the paper's Fig. 6; gamma = 0 yields a perfectly
  /// symmetric tensor. The sign split stays 50/50 either way.
  double tail_asymmetry = 0.4;
};

/// Running [min, max] of a weight sequence. Min and max are exact and
/// order-free, so chunks may be folded in any order and merged.
struct WeightRange {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void fold(std::span<const float> values) noexcept;
  void merge(const WeightRange& other) noexcept;
  double abs_max() const noexcept;
};

class WeightStreamer {
 public:
  WeightStreamer(const Network& network, WeightGenConfig config = {});

  const Network& network() const noexcept { return *network_; }
  const WeightGenConfig& config() const noexcept { return config_; }

  /// The value of the global weight index `g` (see Network for ordering).
  /// The scalar reference: fill() must agree with it bit for bit.
  float weight(std::uint64_t g) const;

  /// Values of weighted layer `w` (index into Network::weighted_layers())
  /// at local indices [local_begin, local_begin + out.size()): element i
  /// equals weight(weight_offset(w) + local_begin + i), without the
  /// per-weight layer lookup.
  void fill(std::size_t w, std::uint64_t local_begin,
            std::span<float> out) const;

  /// Number of weights of weighted layer `w`.
  std::uint64_t layer_weight_count(std::size_t w) const;

  /// [min, max] of weighted layer `w` (one chunked pass, not cached).
  WeightRange layer_range(std::size_t w) const;

  /// Per-layer Laplace/Gaussian scale parameter (sigma).
  double layer_sigma(std::size_t w) const;

 private:
  const Network* network_;  // non-owning; must outlive the streamer
  WeightGenConfig config_;
  std::vector<util::CounterRng> layer_rngs_;  // one decorrelated stream per layer
  std::vector<double> sigmas_;
};

}  // namespace dnnlife::dnn
