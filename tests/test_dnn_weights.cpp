// Tests for the synthetic weight streamer and the reference inference
// interpreter.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "dnn/inference.hpp"
#include "dnn/model_zoo.hpp"
#include "dnn/weight_gen.hpp"
#include "util/statistics.hpp"

namespace dnnlife::dnn {
namespace {

Network tiny_network() {
  return Network("tiny", {LayerSpec::conv("c1", 4, 2, 3, 3),
                          LayerSpec::fully_connected("fc", 8, 36)});
}

TEST(WeightStreamer, DeterministicAcrossInstances) {
  const Network net = tiny_network();
  WeightStreamer a(net);
  WeightStreamer b(net);
  for (std::uint64_t g = 0; g < net.total_weights(); ++g)
    EXPECT_EQ(a.weight(g), b.weight(g));
}

TEST(WeightStreamer, SeedChangesWeights) {
  const Network net = tiny_network();
  WeightGenConfig other;
  other.seed = 777;
  WeightStreamer a(net);
  WeightStreamer b(net, other);
  int differing = 0;
  for (std::uint64_t g = 0; g < net.total_weights(); ++g)
    differing += a.weight(g) != b.weight(g) ? 1 : 0;
  EXPECT_GT(differing, static_cast<int>(net.total_weights()) / 2);
}

TEST(WeightStreamer, RandomAccessMatchesSequential) {
  const Network net = tiny_network();
  WeightStreamer streamer(net);
  const float w10 = streamer.weight(10);
  (void)streamer.weight(0);
  (void)streamer.weight(net.total_weights() - 1);
  EXPECT_EQ(streamer.weight(10), w10);
}

TEST(WeightStreamer, LayerSigmaFollowsFanIn) {
  const Network net = tiny_network();
  WeightStreamer streamer(net);
  // conv fan-in = 2*3*3 = 18; fc fan-in = 36.
  EXPECT_NEAR(streamer.layer_sigma(0), std::sqrt(2.0 / 18.0), 1e-12);
  EXPECT_NEAR(streamer.layer_sigma(1), std::sqrt(2.0 / 36.0), 1e-12);
}

TEST(WeightStreamer, EmpiricalSigmaMatchesTarget) {
  // Use a wide FC layer for a large sample; symmetric tensor so the
  // moments are exactly the configured ones.
  Network net("wide", {LayerSpec::fully_connected("fc", 256, 1024)});
  WeightGenConfig config;
  config.tail_asymmetry = 0.0;
  WeightStreamer streamer(net, config);
  util::RunningStats stats;
  for (std::uint64_t g = 0; g < net.total_weights(); ++g)
    stats.add(streamer.weight(g), 1);
  EXPECT_NEAR(stats.mean(), 0.0, 1e-3);
  EXPECT_NEAR(stats.stddev(), streamer.layer_sigma(0), 5e-4);
}

TEST(WeightStreamer, TailAsymmetrySkewsRangeNotSign) {
  Network net("wide", {LayerSpec::fully_connected("fc", 256, 1024)});
  WeightStreamer streamer(net);  // default gamma = 0.4
  std::uint64_t positive = 0;
  for (std::uint64_t g = 0; g < net.total_weights(); ++g)
    positive += streamer.weight(g) > 0 ? 1u : 0u;
  // Sign split stays 50/50 (the paper's fp32 sign-bit probability ~0.5)...
  EXPECT_NEAR(static_cast<double>(positive) /
                  static_cast<double>(net.total_weights()),
              0.5, 0.01);
  // ...but the range is skewed: max exceeds |min| by roughly (1+g)/(1-g).
  const WeightRange range = streamer.layer_range(0);
  EXPECT_GT(range.max, 1.4 * std::abs(range.min));
}

TEST(WeightStreamer, ZeroAsymmetryIsSymmetric) {
  Network net("wide", {LayerSpec::fully_connected("fc", 256, 1024)});
  WeightGenConfig config;
  config.tail_asymmetry = 0.0;
  WeightStreamer streamer(net, config);
  const WeightRange range = streamer.layer_range(0);
  EXPECT_NEAR(range.max / std::abs(range.min), 1.0, 0.25);
}

TEST(WeightStreamer, RejectsBadConfig) {
  Network net("t", {LayerSpec::fully_connected("fc", 2, 2)});
  WeightGenConfig bad;
  bad.tail_asymmetry = 1.5;
  EXPECT_THROW(WeightStreamer(net, bad), std::invalid_argument);
  WeightGenConfig bad2;
  bad2.sigma_scale = 0.0;
  EXPECT_THROW(WeightStreamer(net, bad2), std::invalid_argument);
}

TEST(WeightStreamer, LaplaceIsHeavyTailed) {
  Network net("wide", {LayerSpec::fully_connected("fc", 128, 512)});
  WeightStreamer streamer(net);  // Laplace default
  util::RunningStats stats;
  for (std::uint64_t g = 0; g < net.total_weights(); ++g)
    stats.add(streamer.weight(g), 1);
  double kurtosis_acc = 0.0;
  for (std::uint64_t g = 0; g < net.total_weights(); ++g) {
    const double z = (streamer.weight(g) - stats.mean()) / stats.stddev();
    kurtosis_acc += z * z * z * z;
  }
  const double kurtosis =
      kurtosis_acc / static_cast<double>(net.total_weights());
  EXPECT_GT(kurtosis, 4.5);
}

TEST(WeightStreamer, LayerStatsAreConsistent) {
  const Network net = tiny_network();
  WeightStreamer streamer(net);
  const WeightRange range = streamer.layer_range(0);
  EXPECT_LE(range.min, range.max);
  EXPECT_GE(range.abs_max(), std::abs(range.min));
  EXPECT_GE(range.abs_max(), std::abs(range.max));
  // The chunked pass agrees with a scalar fold over weight(g).
  util::RunningStats scalar;
  for (std::uint64_t g = 0; g < streamer.layer_weight_count(0); ++g)
    scalar.add(streamer.weight(g), 1);
  EXPECT_EQ(range.min, scalar.min());
  EXPECT_EQ(range.max, scalar.max());
}

// layer_range() reads only the counter draws of a Laplace layer; it must
// equal the fold of the scalar weights it stands for.
TEST(WeightStreamer, LayerRangeEqualsFoldOfScalarWeights) {
  for (const Network& net : {make_custom_mnist(), make_googlenet()}) {
    for (const double gamma : {0.0, 0.4}) {
      for (const std::uint64_t seed : {42ULL, 7ULL}) {
        WeightGenConfig config;
        config.tail_asymmetry = gamma;
        config.seed = seed;
        const WeightStreamer streamer(net, config);
        for (std::size_t w = 0; w < net.weighted_layers().size(); ++w) {
          const std::uint64_t base = net.weight_offset(w);
          double min = streamer.weight(base);
          double max = min;
          for (std::uint64_t i = 1; i < streamer.layer_weight_count(w); ++i) {
            const double value = streamer.weight(base + i);
            min = std::min(min, value);
            max = std::max(max, value);
          }
          const WeightRange range = streamer.layer_range(w);
          ASSERT_EQ(range.min, min) << net.name() << " layer " << w
                                    << " gamma " << gamma << " seed " << seed;
          ASSERT_EQ(range.max, max) << net.name() << " layer " << w
                                    << " gamma " << gamma << " seed " << seed;
        }
      }
    }
  }
}

TEST(WeightStreamer, RangeScansMergeInAnyOrder) {
  const Network net = make_custom_mnist();
  const WeightStreamer streamer(net);
  const std::size_t w = 1;
  const std::uint64_t count = streamer.layer_weight_count(w);
  const RangeScan whole = streamer.scan_range(w, 0, count);
  RangeScan forward;
  RangeScan backward;
  for (std::uint64_t begin = 0; begin < count; begin += 1000)
    forward.merge(streamer.scan_range(
        w, begin, std::min<std::uint64_t>(1000, count - begin)));
  for (std::uint64_t end = count; end > 0;) {
    const std::uint64_t size = std::min<std::uint64_t>(end, 777);
    end -= size;
    backward.merge(streamer.scan_range(w, end, size));
  }
  for (const RangeScan* scan : {&forward, &backward}) {
    EXPECT_EQ(scan->low[0], whole.low[0]);
    EXPECT_EQ(scan->low[1], whole.low[1]);
    EXPECT_EQ(scan->high[0], whole.high[0]);
    EXPECT_EQ(scan->high[1], whole.high[1]);
  }
  EXPECT_LT(whole.low[0], whole.low[1]);
  EXPECT_GT(whole.high[0], whole.high[1]);
}

TEST(WeightStreamer, RangeNearTheGuardBandFallsBackToTheFold) {
  // A second draw within kDrawGuard of an extreme makes range_of fold every
  // value instead of trusting the extreme draw; the result is the same.
  const Network net = make_custom_mnist();
  const WeightStreamer streamer(net);
  const std::size_t w = 0;
  RangeScan scan = streamer.scan_range(w, 0, streamer.layer_weight_count(w));
  const WeightRange exact = streamer.range_of(w, scan);
  scan.low[1] = scan.low[0] + WeightStreamer::kDrawGuard;
  const WeightRange folded = streamer.range_of(w, scan);
  EXPECT_EQ(folded.min, exact.min);
  EXPECT_EQ(folded.max, exact.max);
  // One weight: both extremes are the same draw.
  const Network one("one", {LayerSpec::fully_connected("fc", 1, 1)});
  const WeightStreamer single(one);
  const WeightRange range = single.layer_range(0);
  EXPECT_EQ(range.min, single.weight(0));
  EXPECT_EQ(range.max, single.weight(0));
}

// fill() is the generator the payload build runs on; weight(g) is the
// scalar reference. They must agree bit for bit.
void expect_fill_matches_weight(const WeightStreamer& streamer, std::size_t w,
                                std::uint64_t begin, std::uint64_t count) {
  std::vector<float> values(count);
  streamer.fill(w, begin, values);
  const std::uint64_t base = streamer.network().weight_offset(w);
  for (std::uint64_t i = 0; i < count; ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(values[i]),
              std::bit_cast<std::uint32_t>(streamer.weight(base + begin + i)))
        << "layer " << w << " local " << begin + i;
}

TEST(WeightStreamer, FillMatchesScalarWeightEverywhere) {
  const Network net = make_custom_mnist();
  for (const double gamma : {0.0, 0.4}) {
    WeightGenConfig config;
    config.tail_asymmetry = gamma;
    const WeightStreamer streamer(net, config);
    for (std::size_t w = 0; w < net.weighted_layers().size(); ++w)
      expect_fill_matches_weight(streamer, w, 0,
                                 streamer.layer_weight_count(w));
  }
}

TEST(WeightStreamer, FillMatchesScalarWeightOnVgg16Fc6) {
  const Network net = make_vgg16();
  const WeightStreamer streamer(net);
  std::size_t fc6 = net.weighted_layers().size();
  for (std::size_t w = 0; w < net.weighted_layers().size(); ++w)
    if (net.layers()[net.weighted_layers()[w]].name == "fc6") fc6 = w;
  ASSERT_LT(fc6, net.weighted_layers().size());
  const std::uint64_t count = streamer.layer_weight_count(fc6);
  ASSERT_EQ(count, 25088u * 4096u);
  constexpr std::uint64_t kChunk = 4096;
  expect_fill_matches_weight(streamer, fc6, 0, kChunk);
  expect_fill_matches_weight(streamer, fc6, count / 2 - kChunk / 2, kChunk);
  expect_fill_matches_weight(streamer, fc6, count - kChunk, kChunk);
  EXPECT_THROW(
      {
        std::vector<float> past(2);
        streamer.fill(fc6, count - 1, past);
      },
      std::invalid_argument);
}

// fill() is draws_at() then values_at_draws(), which computes each double
// with util::lane_log and sends one near a float rounding midpoint to
// value_at_draw(). Force draws onto midpoints: around draw_near() of the
// midpoint above each of many float weights, keep the draws whose libm
// double lies within two ulp of it, where a lane-log error would round the
// other way but for the guard. Plus the extreme draws, whose doubles are
// zero or in the far tails.
TEST(WeightStreamer, FillIsExactAtFloatRoundingMidpoints) {
  const Network net = make_googlenet();
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 52;
  const std::size_t layers = net.weighted_layers().size();
  std::uint64_t near_midpoint = 0;
  for (const double gamma : {0.0, 0.4}) {
    WeightGenConfig config;
    config.tail_asymmetry = gamma;
    const WeightStreamer streamer(net, config);
    // value_at_draw()'s double: the Laplace value times the tail factor.
    const double norm = std::sqrt(1.0 + gamma * gamma);
    const double tail[2] = {(1.0 - gamma) / norm, (1.0 + gamma) / norm};
    for (const std::size_t w : {std::size_t{0}, layers / 3, 2 * layers / 3,
                                layers - 1}) {
      const double scale = streamer.layer_sigma(w) / std::sqrt(2.0);
      const auto libm_double = [&](std::uint64_t m) {
        const double value = util::CounterRng::laplace_of_draw(
            m, scale, [](double x) { return std::log(x); });
        return value * tail[value > 0.0];
      };
      std::vector<std::uint64_t> draws = {0, 1, kHalf - 1, kHalf,
                                          2 * kHalf - 2, 2 * kHalf - 1};
      // Weights from the 3rd to the 97th percentile, where a draw step
      // moves the double by a few ulp, so some draw lands next to each
      // midpoint.
      constexpr int kTargets = 2000;
      for (int j = 0; j < kTargets; ++j) {
        const double p = 0.03 + 0.94 * j / kTargets;
        const auto target = static_cast<std::uint64_t>(p * 0x1.0p53);
        const float below = streamer.value_at_draw(w, target);
        const double midpoint =
            (static_cast<double>(below) +
             std::nextafter(below, std::numeric_limits<float>::infinity())) /
            2;
        const auto centre =
            static_cast<std::uint64_t>(streamer.draw_near(w, midpoint));
        for (std::uint64_t m = centre - 8; m <= centre + 8; ++m) {
          const auto bits = std::bit_cast<std::uint64_t>(libm_double(m));
          const auto mid = std::bit_cast<std::uint64_t>(midpoint);
          if ((bits > mid ? bits - mid : mid - bits) <= 2) draws.push_back(m);
        }
      }
      near_midpoint += draws.size() - 6;
      std::vector<float> values(draws.size());
      streamer.values_at_draws(w, draws, values);
      for (std::size_t k = 0; k < draws.size(); ++k) {
        const float scalar = streamer.value_at_draw(w, draws[k]);
        ASSERT_EQ(static_cast<float>(libm_double(draws[k])), scalar);
        ASSERT_EQ(std::bit_cast<std::uint32_t>(values[k]),
                  std::bit_cast<std::uint32_t>(scalar))
            << "gamma " << gamma << " layer " << w << " draw " << draws[k];
      }
    }
  }
  EXPECT_GT(near_midpoint, 4000u);
}

TEST(WeightStreamer, SigmaScaleMultiplies) {
  const Network net = tiny_network();
  WeightGenConfig scaled;
  scaled.sigma_scale = 2.0;
  WeightStreamer a(net);
  WeightStreamer b(net, scaled);
  EXPECT_NEAR(b.layer_sigma(0), 2.0 * a.layer_sigma(0), 1e-12);
  // Same underlying stream: values scale exactly.
  EXPECT_NEAR(b.weight(5), 2.0f * a.weight(5), 1e-6);
}

// ---- inference --------------------------------------------------------------

TEST(Inference, CustomMnistForwardRuns) {
  const Network net = make_custom_mnist();
  WeightStreamer streamer(net);
  StreamerWeightSource source(streamer);
  Tensor3 input(1, 28, 28);
  for (std::uint32_t y = 0; y < 28; ++y)
    for (std::uint32_t x = 0; x < 28; ++x)
      input.at(0, y, x) = static_cast<float>((x + y) % 5) / 5.0f;
  const auto logits = run_inference(net, source, input);
  ASSERT_EQ(logits.size(), 10u);
  // Output must be finite and non-degenerate.
  for (float v : logits) EXPECT_TRUE(std::isfinite(v));
  EXPECT_LT(argmax(logits), 10u);
}

TEST(Inference, IsDeterministic) {
  const Network net = make_custom_mnist();
  WeightStreamer streamer(net);
  StreamerWeightSource source(streamer);
  Tensor3 input(1, 28, 28);
  input.at(0, 14, 14) = 1.0f;
  const auto a = run_inference(net, source, input);
  const auto b = run_inference(net, source, input);
  EXPECT_EQ(a, b);
}

TEST(Inference, LinearInWeightsForSinglePixel) {
  // A one-conv network applied to a delta input reproduces the kernel.
  Network net("probe", {LayerSpec::conv("c", 1, 1, 3, 3)});
  WeightStreamer streamer(net);
  StreamerWeightSource source(streamer);
  Tensor3 input(1, 3, 3);
  input.at(0, 1, 1) = 1.0f;  // centre pixel
  const auto out = run_inference(net, source, input);
  ASSERT_EQ(out.size(), 1u);
  // Output = centre weight of the kernel (index 4).
  EXPECT_FLOAT_EQ(out[0], streamer.weight(4));
}

TEST(Inference, ReluClampsNegative) {
  Network net("relu", {LayerSpec::conv("c", 1, 1, 1, 1), LayerSpec::relu("r")});
  WeightStreamer streamer(net);
  StreamerWeightSource source(streamer);
  Tensor3 input(1, 1, 1);
  input.at(0, 0, 0) = streamer.weight(0) > 0 ? -1.0f : 1.0f;  // force negative
  const auto out = run_inference(net, source, input);
  EXPECT_GE(out[0], 0.0f);
}

TEST(Inference, MaxPoolReducesDims) {
  Network net("pool", {LayerSpec::conv("c", 2, 1, 1, 1),
                       LayerSpec::max_pool("p", 2, 2)});
  WeightStreamer streamer(net);
  StreamerWeightSource source(streamer);
  Tensor3 input(1, 4, 4);
  const auto out = run_inference(net, source, input);
  EXPECT_EQ(out.size(), 2u * 2 * 2);
}

TEST(Inference, ArgmaxRejectsEmpty) {
  EXPECT_THROW(argmax({}), std::invalid_argument);
}

}  // namespace
}  // namespace dnnlife::dnn
