// Synthetic "pre-trained" weight generation.
//
// Substitution: the paper analyses pre-trained ImageNet models, which are
// not available offline, so we synthesise weights whose *distribution*
// matches what training produces — zero-centred, sharply peaked,
// fan-in-scaled spread. Trained CNN weight tensors are well modelled by a
// Laplacian, which reproduces the paper's Fig. 6 per-bit-probability
// profiles (mantissa ~ 0.5, exponent strongly biased, int8-symmetric ~ 0.5,
// int8-asymmetric biased).
//
// Weights are produced by a counter-based RNG: weight(g) is a pure function
// of (seed, network, g), so a 138 M-parameter model streams without being
// materialised, and any traversal order sees identical values.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dnn/network.hpp"
#include "util/rng.hpp"

namespace dnnlife::dnn {

struct WeightGenConfig {
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

/// What a pass over part of a layer learns about its range: the two
/// smallest and two largest counter draws. Scans of parts merge in any
/// order.
struct RangeScan {
  static constexpr std::uint64_t kNoDraw = ~std::uint64_t{0};
  std::uint64_t low[2] = {kNoDraw, kNoDraw};  ///< smallest draws, ascending
  std::uint64_t high[2] = {0, 0};              ///< largest draws, descending

  /// Branch-free, so independent scans vectorise.
  void add_draw(std::uint64_t draw) noexcept {
    low[1] = std::min(low[1], std::max(low[0], draw));
    low[0] = std::min(low[0], draw);
    high[1] = std::max(high[1], std::min(high[0], draw));
    high[0] = std::max(high[0], draw);
  }
  void merge(const RangeScan& other) noexcept;
};

/// Synthesises the weights of a network. A weight is value_at_draw() of
/// its layer's 53-bit counter draw m, which is non-decreasing in m: the
/// Laplace inverse CDF scales each sign half by a positive constant and the
/// halves meet at 0, the tail factor is positive on each half, and the
/// float cast rounds monotonically — up to the `log` error, which
/// kDrawGuard bounds. So a layer's [min, max], and any monotone function of
/// its values such as an int8 code (quant::DrawCodes), follows from its
/// draws alone, with no `log` per weight.
class WeightStreamer {
 public:
  /// Draws this far apart never come out of order in value_at_draw(), for
  /// any `log` error up to about 1,000 ulp (derivation in
  /// sim/encoded_rows.hpp). The int8 payloads count draws against
  /// thresholds with it; kMidpointGuard is its float32 counterpart.
  static constexpr std::uint64_t kDrawGuard = 1024;

  /// values_at_draws()' lane double, a few ulp from value_at_draw()'s,
  /// casts to the same float unless it lies within this many ulp of a float
  /// rounding midpoint (sim/encoded_rows.hpp): about one weight in 2^18,
  /// which then takes value_at_draw().
  static constexpr std::uint64_t kMidpointGuard = 1024;

  WeightStreamer(const Network& network, WeightGenConfig config = {});

  const Network& network() const noexcept { return *network_; }
  const WeightGenConfig& config() const noexcept { return config_; }

  /// The value of the global weight index `g` (see Network for ordering).
  /// The scalar reference: fill() and every payload build agree with it.
  float weight(std::uint64_t g) const;

  /// The value of weighted layer `w` at counter draw m =
  /// layer_rng(w).draw_at(local index), with the libm `log`: the scalar
  /// reference, which weight() and quant::DrawCodes evaluate and fill()
  /// reproduces bit for bit.
  float value_at_draw(std::size_t w, std::uint64_t m) const {
    return static_cast<float>(
        unrounded_at_draw(w, m, [](double x) { return std::log(x); }));
  }

  /// The analytic inverse (via exp) of value_at_draw(), a guess for exact
  /// searches over the draw.
  double draw_near(std::size_t w, double value) const;

  /// Values of weighted layer `w` (index into Network::weighted_layers())
  /// at local indices [local_begin, local_begin + out.size()): element i
  /// equals weight(weight_offset(w) + local_begin + i), without the
  /// per-weight layer lookup. values_at_draws() of the layer's draws.
  void fill(std::size_t w, std::uint64_t local_begin,
            std::span<float> out) const;

  /// out[k] = value_at_draw(w, draws[k]) bit for bit, with no libm `log`
  /// per weight: lanes of util::lane_log, and value_at_draw() itself for
  /// the rare draw within kMidpointGuard of a float rounding midpoint.
  void values_at_draws(std::size_t w, std::span<const std::uint64_t> draws,
                       std::span<float> out) const;

  /// The counter generator of weighted layer `w`.
  const util::CounterRng& layer_rng(std::size_t w) const;

  /// Number of weights of weighted layer `w`.
  std::uint64_t layer_weight_count(std::size_t w) const;

  /// The RangeScan of local indices [begin, begin + count) of layer `w`.
  RangeScan scan_range(std::size_t w, std::uint64_t begin,
                       std::uint64_t count) const;

  /// [min, max] of layer `w` from a scan of all of it: the values at the
  /// extreme draws, or a fold of every value when another draw lies within
  /// kDrawGuard of either. Always equal to a fold of weight(g) over the
  /// layer.
  WeightRange range_of(std::size_t w, const RangeScan& scan) const;

  /// range_of(w, scan_range(w, 0, layer_weight_count(w))); not cached.
  WeightRange layer_range(std::size_t w) const;

  /// Per-layer weight standard deviation sigma_scale * sqrt(2 / fan_in).
  double layer_sigma(std::size_t w) const;

 private:
  const Network* network_;  // non-owning; must outlive the streamer
  WeightGenConfig config_;
  std::vector<util::CounterRng> layer_rngs_;  // one decorrelated stream per layer
  std::vector<double> sigmas_;
  std::vector<double> scales_;  // Laplace b = sigma / sqrt(2)
  double tail_factor_[2] = {1.0, 1.0};  // of values <= 0, and > 0

  /// value_at_draw() before the float cast, with `log` as the natural log:
  /// the one copy of the synthesis arithmetic, for the scalar reference and
  /// the lanes alike.
  template <class Log>
  double unrounded_at_draw(std::size_t w, std::uint64_t m, Log log) const {
    const double value = util::CounterRng::laplace_of_draw(m, scales_[w], log);
    // Skew the two half-distributions, renormalised to keep stddev sigma:
    // Var[skewed] = sigma^2 * ((1+g)^2 + (1-g)^2) / 2 = sigma^2 (1 + g^2).
    // Both factors loaded, then a blend: the sign is a coin flip, and a
    // conditional load would not vectorise. Both are exactly 1 when g = 0.
    const double low = tail_factor_[0], high = tail_factor_[1];
    return value * (value > 0.0 ? high : low);
  }

  /// Fold of the values at local indices [begin, begin + count).
  WeightRange fold_values(std::size_t w, std::uint64_t begin,
                          std::uint64_t count) const;
};

}  // namespace dnnlife::dnn
