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

void RangeScan::merge(const RangeScan& other) noexcept {
  // The union's extremes are among each side's: adding the other side's
  // kept draws is exact (a sentinel adds as a draw no scan keeps).
  for (const std::uint64_t draw : {other.low[0], other.low[1]}) {
    low[1] = std::min(low[1], std::max(low[0], draw));
    low[0] = std::min(low[0], draw);
  }
  for (const std::uint64_t draw : {other.high[0], other.high[1]}) {
    high[1] = std::max(high[1], std::min(high[0], draw));
    high[0] = std::max(high[0], draw);
  }
}

WeightStreamer::WeightStreamer(const Network& network, WeightGenConfig config)
    : network_(&network), config_(config) {
  DNNLIFE_EXPECTS(config_.tail_asymmetry >= 0.0 && config_.tail_asymmetry < 1.0,
                  "tail asymmetry out of [0, 1)");
  DNNLIFE_EXPECTS(config_.sigma_scale > 0.0, "sigma scale must be positive");
  const double gamma = config_.tail_asymmetry;
  tail_factor_[0] = (1.0 - gamma) / std::sqrt(1.0 + gamma * gamma);
  tail_factor_[1] = (1.0 + gamma) / std::sqrt(1.0 + gamma * gamma);
  const auto& weighted = network.weighted_layers();
  layer_rngs_.reserve(weighted.size());
  sigmas_.reserve(weighted.size());
  scales_.reserve(weighted.size());
  for (std::size_t w = 0; w < weighted.size(); ++w) {
    layer_rngs_.emplace_back(util::derive_seed(config_.seed, w + 1));
    const auto& layer = network.layers()[weighted[w]];
    const double fan_in = static_cast<double>(layer.fan_in());
    sigmas_.push_back(config_.sigma_scale * std::sqrt(2.0 / fan_in));
    // Laplace with stddev sigma has scale b = sigma / sqrt(2).
    scales_.push_back(sigmas_.back() / std::sqrt(2.0));
  }
}

float WeightStreamer::weight(std::uint64_t g) const {
  const std::size_t w = network_->weighted_layer_of(g);
  return value_at_draw(
      w, layer_rngs_[w].draw_at(g - network_->weight_offset(w)));
}

double WeightStreamer::draw_near(std::size_t w, double value) const {
  // value = b log(2m + 1) 2^-53 below zero, -b log(2 - (2m + 1) 2^-52)
  // above, both before the tail factor.
  const double scaled =
      value / tail_factor_[value > 0.0] / scales_[w];
  return scaled > 0.0 ? 0x1.0p53 - std::exp(-scaled) * 0x1.0p52 - 0.5
                      : std::exp(scaled) * 0x1.0p52 - 0.5;
}

void WeightStreamer::fill(std::size_t w, std::uint64_t local_begin,
                          std::span<float> out) const {
  DNNLIFE_EXPECTS(local_begin + out.size() <= layer_weight_count(w),
                  "fill range past the end of the layer");
  const util::CounterRng rng = layer_rngs_[w];
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = value_at_draw(w, rng.draw_at(local_begin + i));
}

const util::CounterRng& WeightStreamer::layer_rng(std::size_t w) const {
  DNNLIFE_EXPECTS(w < layer_rngs_.size(), "weighted-layer index out of range");
  return layer_rngs_[w];
}

std::uint64_t WeightStreamer::layer_weight_count(std::size_t w) const {
  DNNLIFE_EXPECTS(w < sigmas_.size(), "weighted-layer index out of range");
  return network_->layers()[network_->weighted_layers()[w]].weight_count();
}

RangeScan WeightStreamer::scan_range(std::size_t w, std::uint64_t begin,
                                     std::uint64_t count) const {
  DNNLIFE_EXPECTS(begin + count <= layer_weight_count(w),
                  "scan range past the end of the layer");
  RangeScan scan;
  // Eight interleaved scans over batches of draws, laid out so that both
  // loops vectorise; they merge at the end.
  constexpr std::size_t kLanes = 8;
  std::uint64_t low0[kLanes], low1[kLanes];
  std::uint64_t high0[kLanes] = {}, high1[kLanes] = {};
  std::fill_n(low0, kLanes, RangeScan::kNoDraw);
  std::fill_n(low1, kLanes, RangeScan::kNoDraw);
  std::uint64_t draws[256];
  for (std::uint64_t done = 0; done < count; done += std::size(draws)) {
    const std::size_t size =
        std::min<std::uint64_t>(std::size(draws), count - done);
    layer_rngs_[w].draws_at(begin + done,
                            std::span<std::uint64_t>(draws, size));
    std::size_t k = 0;
    for (; k + kLanes <= size; k += kLanes) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        const std::uint64_t draw = draws[k + j];
        low1[j] = std::min(low1[j], std::max(low0[j], draw));
        low0[j] = std::min(low0[j], draw);
        high1[j] = std::max(high1[j], std::min(high0[j], draw));
        high0[j] = std::max(high0[j], draw);
      }
    }
    for (; k < size; ++k) scan.add_draw(draws[k]);
  }
  for (std::size_t j = 0; j < kLanes; ++j)
    scan.merge({{low0[j], low1[j]}, {high0[j], high1[j]}});
  return scan;
}

WeightRange WeightStreamer::range_of(std::size_t w,
                                     const RangeScan& scan) const {
  DNNLIFE_EXPECTS(scan.low[0] <= scan.high[0], "range of an empty scan");
  // Another draw near an extreme could, through a libm `log` error, hold
  // the extreme value instead: fold the values (vanishingly rare; the
  // draws of a layer of n weights are ~2^53 / n apart).
  if (scan.low[1] - scan.low[0] <= kDrawGuard ||
      scan.high[0] - scan.high[1] <= kDrawGuard)
    return fold_values(w, 0, layer_weight_count(w));
  return {value_at_draw(w, scan.low[0]), value_at_draw(w, scan.high[0])};
}

WeightRange WeightStreamer::layer_range(std::size_t w) const {
  return range_of(w, scan_range(w, 0, layer_weight_count(w)));
}

WeightRange WeightStreamer::fold_values(std::size_t w, std::uint64_t begin,
                                        std::uint64_t count) const {
  constexpr std::uint64_t kChunk = 4096;
  float chunk[kChunk];
  WeightRange range;
  for (std::uint64_t done = 0; done < count; done += kChunk) {
    const std::span<float> values(chunk, std::min(kChunk, count - done));
    fill(w, begin + done, values);
    range.fold(values);
  }
  return range;
}

double WeightStreamer::layer_sigma(std::size_t w) const {
  DNNLIFE_EXPECTS(w < sigmas_.size(), "weighted-layer index out of range");
  return sigmas_[w];
}

}  // namespace dnnlife::dnn
