// Parameterized property suites: invariants swept across formats,
// policies and widths (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/fast_simulator.hpp"
#include "util/statistics.hpp"
#include "core/reference_simulator.hpp"
#include "core/transducer.hpp"
#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "util/bitops.hpp"

namespace dnnlife {
namespace {

std::string format_label(quant::WeightFormat format) {
  std::string label = quant::to_string(format);
  for (char& ch : label)
    if (ch == '-') ch = '_';
  return label;
}

/// The built-in policies as test parameters: an index into kPolicyNames
/// (PolicyConfig::kind), which keeps each parameter a plain 4-byte value.
enum class BuiltinPolicy { kNone, kInversion, kBarrelShifter, kDnnLife };
constexpr const char* kPolicyNames[] = {"no-mitigation", "inversion",
                                        "barrel-shifter", "dnn-life"};

std::string policy_kind(BuiltinPolicy policy) {
  return kPolicyNames[static_cast<int>(policy)];
}

std::string policy_label(BuiltinPolicy policy) {
  std::string label = policy_kind(policy);
  for (char& ch : label)
    if (ch == '-') ch = '_';
  return label;
}

// ---- codec roundtrip across formats -----------------------------------------

class CodecRoundTrip : public ::testing::TestWithParam<quant::WeightFormat> {
 protected:
  CodecRoundTrip()
      : network_(dnn::make_custom_mnist()), streamer_(network_),
        codec_(streamer_, GetParam()) {}
  dnn::Network network_;
  dnn::WeightStreamer streamer_;
  quant::WeightWordCodec codec_;
};

TEST_P(CodecRoundTrip, WordsFitFormatWidth) {
  for (std::uint64_t g = 0; g < 2000; ++g)
    EXPECT_EQ(codec_.encode(g) & ~util::low_mask(codec_.bits()), 0u);
}

TEST_P(CodecRoundTrip, DecodeRecoversWithinQuantStep) {
  for (std::uint64_t g = 0; g < 2000; ++g) {
    const double original = streamer_.weight(g);
    const double decoded = codec_.decode(g, codec_.encode(g));
    if (GetParam() == quant::WeightFormat::kFloat32) {
      EXPECT_EQ(decoded, original);
    } else {
      const auto& params =
          codec_.layer_params(network_.weighted_layer_of(g));
      EXPECT_LE(std::abs(decoded - original), params.scale * 0.5 + 1e-12);
    }
  }
}

TEST_P(CodecRoundTrip, EncodeIsDeterministic) {
  for (std::uint64_t g : {0ULL, 777ULL, 123456ULL})
    EXPECT_EQ(codec_.encode(g), codec_.encode(g));
}

INSTANTIATE_TEST_SUITE_P(Formats, CodecRoundTrip,
                         ::testing::Values(quant::WeightFormat::kFloat32,
                                           quant::WeightFormat::kInt8Symmetric,
                                           quant::WeightFormat::kInt8Asymmetric),
                         [](const auto& param_info) { return format_label(param_info.param); });

// ---- simulator equivalence across (format x policy) --------------------------

using SimCase = std::tuple<quant::WeightFormat, BuiltinPolicy>;

class SimulatorEquivalence : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimulatorEquivalence, FastMatchesReference) {
  const auto [format, kind] = GetParam();
  const dnn::Network network = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(network);
  const quant::WeightWordCodec codec(streamer, format);
  sim::BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 8 * 1024;
  const sim::BaselineWeightStream stream(codec, config);

  core::PolicyConfig policy;
  policy.kind = policy_kind(kind);
  policy.weight_bits = codec.bits();
  const auto reference = core::simulate_reference(stream, policy, {3, false});
  const auto fast = core::simulate_fast(stream, policy, {3});
  EXPECT_EQ(reference.ones_time(), fast.ones_time());
  EXPECT_EQ(reference.total_time(), fast.total_time());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimulatorEquivalence,
    ::testing::Combine(::testing::Values(quant::WeightFormat::kFloat32,
                                         quant::WeightFormat::kInt8Symmetric,
                                         quant::WeightFormat::kInt8Asymmetric),
                       ::testing::Values(BuiltinPolicy::kNone,
                                         BuiltinPolicy::kInversion,
                                         BuiltinPolicy::kBarrelShifter)),
    [](const auto& param_info) {
      return format_label(std::get<0>(param_info.param)) + "_" +
             policy_label(std::get<1>(param_info.param));
    });

// ---- decode property across policies, gate-level metadata corruption ---------

class DecodeProperty : public ::testing::TestWithParam<BuiltinPolicy> {};

TEST_P(DecodeProperty, ReferenceVerifiesEveryWrite) {
  const dnn::Network network = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(network);
  const quant::WeightWordCodec codec(streamer, quant::WeightFormat::kInt8Symmetric);
  sim::BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 4 * 1024;
  const sim::BaselineWeightStream stream(codec, config);
  core::PolicyConfig policy;
  policy.kind = policy_kind(GetParam());
  policy.weight_bits = codec.bits();
  EXPECT_NO_THROW(core::simulate_reference(stream, policy, {2, true}));
}

INSTANTIATE_TEST_SUITE_P(Policies, DecodeProperty,
                         ::testing::Values(BuiltinPolicy::kNone,
                                           BuiltinPolicy::kInversion,
                                           BuiltinPolicy::kBarrelShifter,
                                           BuiltinPolicy::kDnnLife),
                         [](const auto& param_info) {
                           return policy_label(param_info.param);
                         });

TEST(DecodeNegative, WrongMetadataCorruptsRow) {
  // Decoding with the wrong E bit must NOT recover the data — guards
  // against a trivially-passing decode check.
  const core::XorTransducer wde(64);
  const std::vector<std::uint64_t> original = {0x0123456789abcdefULL};
  auto stored = wde.transform(original, /*enable=*/true);
  const auto decoded_wrong = wde.transform(stored, /*enable=*/false);
  EXPECT_NE(decoded_wrong, original);
  const auto decoded_right = wde.transform(stored, /*enable=*/true);
  EXPECT_EQ(decoded_right, original);
}

// ---- duty concentration property over inference count ------------------------

class DutyConcentration : public ::testing::TestWithParam<unsigned> {};

TEST_P(DutyConcentration, SpreadShrinksWithSqrtN) {
  const unsigned inferences = GetParam();
  sim::VectorWriteStream stream(sim::MemoryGeometry{1, 64}, 1);
  stream.add_write(0, 0, {0xa5a5a5a5a5a5a5a5ULL});
  auto policy = core::PolicyConfig::dnn_life(0.5);
  policy.seed = 0xfeedULL + inferences;
  const auto tracker = core::simulate_fast(stream, policy, {inferences});
  util::RunningStats duty;
  for (std::size_t cell = 0; cell < 64; ++cell) duty.add(tracker.duty(cell), 1);
  // Mean near 0.5; per-cell deviation bounded by ~5 binomial sigmas.
  EXPECT_NEAR(duty.mean(), 0.5, 0.2);
  const double sigma = std::sqrt(0.25 / inferences);
  EXPECT_LE(std::abs(duty.max() - 0.5), 5.0 * sigma + 1e-9);
  EXPECT_LE(std::abs(duty.min() - 0.5), 5.0 * sigma + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DutyConcentration,
                         ::testing::Values(25u, 100u, 400u, 1600u));

}  // namespace
}  // namespace dnnlife
