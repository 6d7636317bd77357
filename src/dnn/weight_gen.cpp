#include "dnn/weight_gen.hpp"

#include <algorithm>
#include <cmath>

namespace dnnlife::dnn {

void WeightRange::fold(std::span<const float> values) noexcept {
  for (const float value : values) {
    min = std::min(min, static_cast<double>(value));
    max = std::max(max, static_cast<double>(value));
  }
}

void WeightRange::merge(const WeightRange& other) noexcept {
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

double WeightRange::abs_max() const noexcept {
  return std::max(std::abs(min), std::abs(max));
}

WeightStreamer::WeightStreamer(const Network& network, WeightGenConfig config)
    : network_(&network), config_(config) {
  DNNLIFE_EXPECTS(config_.tail_asymmetry >= 0.0 && config_.tail_asymmetry < 1.0,
                  "tail asymmetry out of [0, 1)");
  DNNLIFE_EXPECTS(config_.sigma_scale > 0.0, "sigma scale must be positive");
  const auto& weighted = network.weighted_layers();
  layer_rngs_.reserve(weighted.size());
  sigmas_.reserve(weighted.size());
  for (std::size_t w = 0; w < weighted.size(); ++w) {
    layer_rngs_.emplace_back(util::derive_seed(config_.seed, w + 1));
    const auto& layer = network.layers()[weighted[w]];
    const double fan_in = static_cast<double>(layer.fan_in());
    sigmas_.push_back(config_.sigma_scale * std::sqrt(2.0 / fan_in));
  }
}

float WeightStreamer::weight(std::uint64_t g) const {
  const std::size_t w = network_->weighted_layer_of(g);
  const std::uint64_t local = g - network_->weight_offset(w);
  const double sigma = sigmas_[w];
  double value = 0.0;
  switch (config_.distribution) {
    case WeightDistribution::kGaussian:
      value = sigma * layer_rngs_[w].gaussian_at(local);
      break;
    case WeightDistribution::kLaplace:
      // Laplace with stddev sigma has scale b = sigma / sqrt(2).
      value = layer_rngs_[w].laplace_at(local, sigma / std::sqrt(2.0));
      break;
  }
  const double gamma = config_.tail_asymmetry;
  if (gamma != 0.0) {
    // Skew the two half-distributions, renormalised to keep stddev sigma:
    // Var[skewed] = sigma^2 * ((1+g)^2 + (1-g)^2) / 2 = sigma^2 (1 + g^2).
    value *= (value > 0.0 ? 1.0 + gamma : 1.0 - gamma) /
             std::sqrt(1.0 + gamma * gamma);
  }
  return static_cast<float>(value);
}

void WeightStreamer::fill(std::size_t w, std::uint64_t local_begin,
                          std::span<float> out) const {
  DNNLIFE_EXPECTS(w < sigmas_.size(), "weighted-layer index out of range");
  DNNLIFE_EXPECTS(local_begin + out.size() <= layer_weight_count(w),
                  "fill range past the end of the layer");
  // weight()'s arithmetic with the per-layer constants hoisted: every
  // factor is computed by the same expression, so the bits agree.
  const util::CounterRng& rng = layer_rngs_[w];
  const double sigma = sigmas_[w];
  const double gamma = config_.tail_asymmetry;
  const double positive = (1.0 + gamma) / std::sqrt(1.0 + gamma * gamma);
  const double negative = (1.0 - gamma) / std::sqrt(1.0 + gamma * gamma);
  const double laplace_scale = sigma / std::sqrt(2.0);
  const bool gaussian = config_.distribution == WeightDistribution::kGaussian;
  for (std::size_t i = 0; i < out.size(); ++i) {
    double value = gaussian ? sigma * rng.gaussian_at(local_begin + i)
                            : rng.laplace_at(local_begin + i, laplace_scale);
    if (gamma != 0.0) value *= value > 0.0 ? positive : negative;
    out[i] = static_cast<float>(value);
  }
}

std::uint64_t WeightStreamer::layer_weight_count(std::size_t w) const {
  DNNLIFE_EXPECTS(w < sigmas_.size(), "weighted-layer index out of range");
  return network_->layers()[network_->weighted_layers()[w]].weight_count();
}

WeightRange WeightStreamer::layer_range(std::size_t w) const {
  constexpr std::uint64_t kChunk = 4096;
  std::vector<float> chunk(kChunk);
  const std::uint64_t count = layer_weight_count(w);
  WeightRange range;
  for (std::uint64_t begin = 0; begin < count; begin += kChunk) {
    const std::span<float> values(chunk.data(),
                                  std::min(kChunk, count - begin));
    fill(w, begin, values);
    range.fold(values);
  }
  return range;
}

double WeightStreamer::layer_sigma(std::size_t w) const {
  DNNLIFE_EXPECTS(w < sigmas_.size(), "weighted-layer index out of range");
  return sigmas_[w];
}

}  // namespace dnnlife::dnn
