// Tests for float bit views, quantizers, word codecs and the Fig. 6
// bit-distribution analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "dnn/model_zoo.hpp"
#include "quant/bit_distribution.hpp"
#include "quant/float_bits.hpp"
#include "quant/quantizer.hpp"
#include "quant/word_codec.hpp"

namespace dnnlife::quant {
namespace {

TEST(FloatBits, RoundTrip) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.1f, -3.25e-8f, 1e30f}) {
    EXPECT_EQ(bits_to_float(float_to_bits(v)), v);
  }
}

TEST(FloatBits, DecomposeKnownValues) {
  const auto one = decompose(1.0f);
  EXPECT_FALSE(one.sign);
  EXPECT_EQ(one.exponent, 127u);
  EXPECT_EQ(one.mantissa, 0u);
  const auto neg_half = decompose(-0.5f);
  EXPECT_TRUE(neg_half.sign);
  EXPECT_EQ(neg_half.exponent, 126u);
}

TEST(FloatBits, ComposeInvertsDecompose) {
  for (float v : {0.37f, -123.5f, 6.1e-5f}) {
    EXPECT_EQ(compose(decompose(v)), v);
  }
}

TEST(FloatBits, Classification) {
  EXPECT_TRUE(is_denormal_bits(1u));
  EXPECT_FALSE(is_denormal_bits(float_to_bits(1.0f)));
  EXPECT_TRUE(is_nan_bits(float_to_bits(std::nanf(""))));
}

TEST(Quantizer, SymmetricBasics) {
  const auto params = make_symmetric_int8(1.27);
  EXPECT_DOUBLE_EQ(params.scale, 0.01);
  EXPECT_EQ(params.zero_point, 0);
  EXPECT_EQ(quantize(params, 0.0), 0);
  EXPECT_EQ(quantize(params, 1.27), 127);
  EXPECT_EQ(quantize(params, -1.27), -127);
  EXPECT_EQ(quantize(params, 10.0), 127);    // clamps
  EXPECT_EQ(quantize(params, -10.0), -127);  // clamps
}

TEST(Quantizer, SymmetricRoundTripError) {
  const auto params = make_symmetric_int8(2.0);
  for (double v = -2.0; v <= 2.0; v += 0.0137) {
    const double rt = dequantize(params, quantize(params, v));
    EXPECT_LE(std::abs(rt - v), max_rounding_error(params) + 1e-12);
  }
}

TEST(Quantizer, AsymmetricCoversRangeAndZero) {
  const auto params = make_asymmetric_uint8(-0.2, 1.0);
  EXPECT_EQ(params.q_min, 0);
  EXPECT_EQ(params.q_max, 255);
  // Zero is exactly representable.
  EXPECT_NEAR(dequantize(params, quantize(params, 0.0)), 0.0,
              max_rounding_error(params));
  EXPECT_EQ(quantize(params, -0.2), 0);
  EXPECT_EQ(quantize(params, 1.0), 255);
}

TEST(Quantizer, AsymmetricZeroPointShiftsDistribution) {
  // A mostly-positive range gets a small zero point.
  const auto pos = make_asymmetric_uint8(-0.1, 1.0);
  // A symmetric range centres the zero point.
  const auto sym = make_asymmetric_uint8(-1.0, 1.0);
  EXPECT_LT(pos.zero_point, sym.zero_point);
  EXPECT_NEAR(sym.zero_point, 128, 1);
}

TEST(Quantizer, DegenerateAllZeroTensor) {
  const auto sym = make_symmetric_int8(0.0);
  EXPECT_EQ(quantize(sym, 0.0), 0);
  const auto asym = make_asymmetric_uint8(0.0, 0.0);
  EXPECT_EQ(quantize(asym, 0.0), asym.zero_point);
}

TEST(Quantizer, RejectsInvalidRanges) {
  EXPECT_THROW(make_symmetric_int8(-1.0), std::invalid_argument);
  EXPECT_THROW(make_asymmetric_uint8(1.0, -1.0), std::invalid_argument);
  const auto params = make_symmetric_int8(1.0);
  EXPECT_THROW(dequantize(params, 200), std::invalid_argument);
}

// ---- codecs ----------------------------------------------------------------

class CodecTest : public ::testing::Test {
 protected:
  CodecTest()
      : network_(dnn::make_custom_mnist()), streamer_(network_) {}
  dnn::Network network_;
  dnn::WeightStreamer streamer_;
};

TEST_F(CodecTest, BitsPerWeight) {
  EXPECT_EQ(bits_per_weight(WeightFormat::kFloat32), 32u);
  EXPECT_EQ(bits_per_weight(WeightFormat::kInt8Symmetric), 8u);
  EXPECT_EQ(bits_per_weight(WeightFormat::kInt8Asymmetric), 8u);
}

TEST_F(CodecTest, Float32EncodeIsRawBits) {
  WeightWordCodec codec(streamer_, WeightFormat::kFloat32);
  for (std::uint64_t g : {0ULL, 100ULL, 5000ULL}) {
    EXPECT_EQ(codec.encode(g), float_to_bits(streamer_.weight(g)));
    EXPECT_EQ(codec.decode(g, codec.encode(g)),
              static_cast<double>(streamer_.weight(g)));
  }
}

TEST_F(CodecTest, Int8SymmetricRoundTripWithinScale) {
  WeightWordCodec codec(streamer_, WeightFormat::kInt8Symmetric);
  for (std::uint64_t g = 0; g < 500; ++g) {
    const double original = streamer_.weight(g);
    const double decoded = codec.decode(g, codec.encode(g));
    const auto& params =
        codec.layer_params(network_.weighted_layer_of(g));
    EXPECT_LE(std::abs(decoded - original), params.scale * 0.5 + 1e-12);
  }
}

TEST_F(CodecTest, Int8AsymmetricRoundTripWithinScale) {
  WeightWordCodec codec(streamer_, WeightFormat::kInt8Asymmetric);
  for (std::uint64_t g = 0; g < 500; ++g) {
    const double original = streamer_.weight(g);
    const double decoded = codec.decode(g, codec.encode(g));
    const auto& params =
        codec.layer_params(network_.weighted_layer_of(g));
    EXPECT_LE(std::abs(decoded - original), params.scale * 0.5 + 1e-12);
  }
}

TEST_F(CodecTest, Int8WordsFitInEightBits) {
  for (auto format : {WeightFormat::kInt8Symmetric, WeightFormat::kInt8Asymmetric}) {
    WeightWordCodec codec(streamer_, format);
    for (std::uint64_t g = 0; g < 1000; ++g)
      EXPECT_LE(codec.encode(g), 0xffu);
  }
}

TEST_F(CodecTest, Float32HasNoQuantParams) {
  WeightWordCodec codec(streamer_, WeightFormat::kFloat32);
  EXPECT_THROW(codec.layer_params(0), std::invalid_argument);
}

// ---- draw thresholds (the payload build's int8 Laplace path) ---------------

/// The draw codes of layer `w` from the build's inputs: the layer's extreme
/// draws and the quantisation parameters of its range.
DrawCodes layer_codes(const dnn::WeightStreamer& streamer, std::size_t w,
                      WeightFormat format, const dnn::RangeScan& scan) {
  return DrawCodes(streamer, w,
                   layer_quant_params(format, streamer.range_of(w, scan)),
                   scan.low[0], scan.high[0]);
}

/// Every threshold T_k is exact — the code reaches low_code + k at T_k and
/// not one draw earlier — and word_at() agrees with the scalar path at the
/// ends, around every threshold and its guard band, and at `draws`.
void expect_exact_codes(const DrawCodes& codes, std::uint64_t low,
                        std::uint64_t high,
                        const std::vector<std::uint64_t>& draws) {
  const auto thresholds = codes.thresholds();
  // A layer's range spans most of the int8 grid (127 codes at least).
  ASSERT_GE(thresholds.size(), 127u);
  ASSERT_LE(thresholds.size(), 255u);
  ASSERT_EQ(codes.scalar_code(low), codes.low_code());
  ASSERT_EQ(codes.scalar_code(high),
            codes.low_code() + static_cast<std::int32_t>(thresholds.size()));
  std::vector<std::uint64_t> probes = draws;
  probes.push_back(low);
  probes.push_back(high);
  constexpr std::uint64_t kGuard = dnn::WeightStreamer::kDrawGuard;
  for (std::size_t k = 0; k < thresholds.size(); ++k) {
    const std::uint64_t t = thresholds[k];
    const auto level = codes.low_code() + static_cast<std::int32_t>(k + 1);
    ASSERT_GT(t, low);
    ASSERT_LE(t, high);
    if (k > 0) {
      ASSERT_LE(thresholds[k - 1], t);
    }
    ASSERT_GE(codes.scalar_code(t), level) << "threshold " << k;
    ASSERT_LT(codes.scalar_code(t - 1), level) << "threshold " << k;
    for (const std::uint64_t d :
         {std::uint64_t{0}, std::uint64_t{1}, kGuard, kGuard + 1, kGuard + 2}) {
      if (t - low >= d + 1) probes.push_back(t - 1 - d);
      if (high - t >= d) probes.push_back(t + d);
    }
  }
  for (const std::uint64_t m : {low + kGuard, low + kGuard + 1, high - kGuard,
                                high - kGuard - 1})
    if (m >= low && m <= high) probes.push_back(m);
  for (const std::uint64_t m : probes)
    ASSERT_EQ(codes.word_at(m),
              static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(codes.scalar_code(m))))
        << "draw " << m;
}

void expect_exact_network(const dnn::Network& network,
                          dnn::WeightGenConfig config = {}) {
  const dnn::WeightStreamer streamer(network, config);
  for (std::size_t w = 0; w < network.weighted_layers().size(); ++w) {
    const dnn::RangeScan scan =
        streamer.scan_range(w, 0, streamer.layer_weight_count(w));
    std::vector<std::uint64_t> draws;
    for (std::uint64_t i = 0;
         i < std::min<std::uint64_t>(4096, streamer.layer_weight_count(w)); ++i)
      draws.push_back(streamer.layer_rng(w).draw_at(i));
    for (const WeightFormat format :
         {WeightFormat::kInt8Symmetric, WeightFormat::kInt8Asymmetric}) {
      SCOPED_TRACE(network.name() + " layer " + std::to_string(w) + " " +
                   to_string(format));
      expect_exact_codes(layer_codes(streamer, w, format, scan), scan.low[0],
                         scan.high[0], draws);
    }
  }
}

TEST(DrawCodes, ExactOnEveryCustomMnistLayer) {
  expect_exact_network(dnn::make_custom_mnist());
}
TEST(DrawCodes, ExactOnEveryAlexNetLayer) {
  expect_exact_network(dnn::make_alexnet());
}
TEST(DrawCodes, ExactOnEveryVgg16Layer) {
  expect_exact_network(dnn::make_vgg16());
}
TEST(DrawCodes, ExactOnEveryGoogLeNetLayer) {
  expect_exact_network(dnn::make_googlenet());
}
TEST(DrawCodes, ExactOnEveryResNet152Layer) {
  expect_exact_network(dnn::make_resnet152());
}

TEST(DrawCodes, ExactAcrossWeightConfigs) {
  const dnn::Network network = dnn::make_custom_mnist();
  dnn::WeightGenConfig symmetric;
  symmetric.tail_asymmetry = 0.0;
  dnn::WeightGenConfig narrow;
  narrow.sigma_scale = 0.5;
  dnn::WeightGenConfig wide;
  wide.sigma_scale = 2.0;
  dnn::WeightGenConfig reseeded;
  reseeded.seed = 7;
  for (const dnn::WeightGenConfig& config : {symmetric, narrow, wide, reseeded})
    expect_exact_network(network, config);
}

TEST(DrawCodes, OneWeightLayerHasNoThresholds) {
  const dnn::Network network("one",
                             {dnn::LayerSpec::fully_connected("fc", 1, 1)});
  const dnn::WeightStreamer streamer(network);
  const std::uint64_t draw = streamer.layer_rng(0).draw_at(0);
  for (const WeightFormat format :
       {WeightFormat::kInt8Symmetric, WeightFormat::kInt8Asymmetric}) {
    const DrawCodes codes =
        layer_codes(streamer, 0, format, streamer.scan_range(0, 0, 1));
    EXPECT_TRUE(codes.thresholds().empty());
    EXPECT_EQ(codes.word_at(draw), WeightWordCodec(streamer, format).encode(0));
  }
}

TEST(DrawCodes, ExactOverTheWholeDrawRange) {
  // Draws 0 and 2^53 - 1 are the extreme tails of the inverse CDF, where
  // one draw step spans many codes.
  const dnn::Network network = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(network);
  const std::uint64_t top = (std::uint64_t{1} << 53) - 1;
  const dnn::WeightRange range{streamer.value_at_draw(0, 0),
                               streamer.value_at_draw(0, top)};
  for (const WeightFormat format :
       {WeightFormat::kInt8Symmetric, WeightFormat::kInt8Asymmetric}) {
    SCOPED_TRACE(to_string(format));
    const DrawCodes codes(streamer, 0, layer_quant_params(format, range), 0,
                          top);
    expect_exact_codes(codes, 0, top, {1, 2, 3, top - 1, top - 2});
  }
  const QuantParams params =
      layer_quant_params(WeightFormat::kInt8Symmetric, range);
  EXPECT_THROW(DrawCodes(streamer, 0, params, 0, top + 1),
               std::invalid_argument);
}

TEST_F(CodecTest, DecodeRejectsWideWords) {
  WeightWordCodec codec(streamer_, WeightFormat::kInt8Symmetric);
  EXPECT_THROW(codec.decode(0, 0x1ffu), std::invalid_argument);
}

// ---- bit distributions (Fig. 6 shape) ---------------------------------------

TEST_F(CodecTest, SymmetricInt8BitsAreNearHalf) {
  WeightWordCodec codec(streamer_, WeightFormat::kInt8Symmetric);
  const auto dist = analyze_network_bits(codec, 50000);
  ASSERT_EQ(dist.p_one.size(), 8u);
  // Paper observation 1: symmetric int8 probabilities are close to 0.5
  // across bit-locations (sign + two's-complement high bits of a
  // zero-centred distribution).
  for (double p : dist.p_one) EXPECT_NEAR(p, 0.5, 0.12);
}

TEST_F(CodecTest, AsymmetricInt8AverageIsBiased) {
  WeightWordCodec codec(streamer_, WeightFormat::kInt8Asymmetric);
  const auto dist = analyze_network_bits(codec, 50000);
  // Paper observation 3: the asymmetric format's average P('1') deviates
  // from 0.5, defeating rotation-based balancing.
  EXPECT_GT(std::abs(dist.average_p_one - 0.5), 0.03);
}

TEST_F(CodecTest, Float32ExponentBitsAreBiased) {
  WeightWordCodec codec(streamer_, WeightFormat::kFloat32);
  const auto dist = analyze_network_bits(codec, 50000);
  ASSERT_EQ(dist.p_one.size(), 32u);
  // Sign bit ~0.5 (zero-centred weights).
  EXPECT_NEAR(dist.p_one[31], 0.5, 0.05);
  // Weights are far below 1.0: biased exponent < 127, so bit 30 is ~0 and
  // the top exponent bits below it are ~1 (paper Fig. 6, higher
  // bit-locations vary strongly across locations).
  EXPECT_LT(dist.p_one[30], 0.05);
  EXPECT_GT(dist.p_one[29], 0.9);
  EXPECT_GT(dist.p_one[28], 0.9);
  EXPECT_GT(dist.max_deviation_from_half(), 0.3);
  // Low mantissa bits ~0.5.
  for (unsigned b = 0; b < 16; ++b) EXPECT_NEAR(dist.p_one[b], 0.5, 0.05);
}

TEST_F(CodecTest, LayerAnalysisMatchesManualCount) {
  WeightWordCodec codec(streamer_, WeightFormat::kInt8Symmetric);
  const auto dist = analyze_layer_bits(codec, 0);
  const auto& layer = network_.layers()[network_.weighted_layers()[0]];
  EXPECT_EQ(dist.samples, layer.weight_count());
  std::uint64_t ones_bit0 = 0;
  for (std::uint64_t g = 0; g < layer.weight_count(); ++g)
    ones_bit0 += codec.encode(g) & 1u;
  EXPECT_NEAR(dist.p_one[0],
              static_cast<double>(ones_bit0) /
                  static_cast<double>(layer.weight_count()),
              1e-12);
}

TEST_F(CodecTest, StrideSubsamplingIsDeterministic) {
  WeightWordCodec codec(streamer_, WeightFormat::kInt8Symmetric);
  const auto a = analyze_bits(codec, 0, 20000, 7);
  const auto b = analyze_bits(codec, 0, 20000, 7);
  EXPECT_EQ(a.p_one, b.p_one);
  EXPECT_EQ(a.samples, b.samples);
}

TEST_F(CodecTest, MaxDeviationFromHalf) {
  BitDistribution dist;
  dist.p_one = {0.5, 0.9, 0.2};
  EXPECT_NEAR(dist.max_deviation_from_half(), 0.4, 1e-12);
}

TEST_F(CodecTest, AnalyzeRejectsEmptyRange) {
  WeightWordCodec codec(streamer_, WeightFormat::kInt8Symmetric);
  EXPECT_THROW(analyze_bits(codec, 10, 10), std::invalid_argument);
}

}  // namespace
}  // namespace dnnlife::quant
