// Cross-validation of the fast aggregated simulator against the literal
// reference simulator, plus behavioural properties of the policies on
// synthetic write streams.
#include <gtest/gtest.h>

#include <vector>

#include "aging/snm_histogram.hpp"
#include "aging/device_model.hpp"
#include "core/fast_simulator.hpp"
#include "core/reference_simulator.hpp"
#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/tpu_npu.hpp"
#include "util/rng.hpp"

namespace dnnlife::core {
namespace {

/// A small baseline-accelerator stream over the paper's custom MNIST net.
class SmallStreamFixture : public ::testing::Test {
 protected:
  SmallStreamFixture()
      : network_(dnn::make_custom_mnist()), streamer_(network_),
        codec_(streamer_, quant::WeightFormat::kInt8Symmetric) {}

  sim::BaselineWeightStream make_stream(std::uint64_t memory_bytes = 16 * 1024) {
    sim::BaselineAcceleratorConfig config;
    config.weight_memory_bytes = memory_bytes;
    return sim::BaselineWeightStream(codec_, config);
  }

  dnn::Network network_;
  dnn::WeightStreamer streamer_;
  quant::WeightWordCodec codec_;
};

TEST_F(SmallStreamFixture, FastMatchesReferenceNoMitigation) {
  const auto stream = make_stream();
  const auto reference =
      simulate_reference(stream, PolicyConfig::none(), {5, false});
  const auto fast = simulate_fast(stream, PolicyConfig::none(), {5});
  EXPECT_EQ(reference.ones_time(), fast.ones_time());
  EXPECT_EQ(reference.total_time(), fast.total_time());
}

TEST_F(SmallStreamFixture, FastMatchesReferenceInversion) {
  const auto stream = make_stream();
  const auto reference =
      simulate_reference(stream, PolicyConfig::inversion(), {4, false});
  const auto fast = simulate_fast(stream, PolicyConfig::inversion(), {4});
  EXPECT_EQ(reference.ones_time(), fast.ones_time());
}

TEST_F(SmallStreamFixture, FastMatchesReferenceBarrel) {
  const auto stream = make_stream();
  const auto policy = PolicyConfig::barrel_shifter(8);
  const auto reference = simulate_reference(stream, policy, {3, false});
  const auto fast = simulate_fast(stream, policy, {3});
  EXPECT_EQ(reference.ones_time(), fast.ones_time());
}

TEST_F(SmallStreamFixture, FastMatchesReferenceOnNpuStream) {
  sim::NpuWeightStream stream(codec_, sim::TpuNpuConfig{});
  for (const auto& policy :
       {PolicyConfig::none(), PolicyConfig::inversion(),
        PolicyConfig::barrel_shifter(8)}) {
    const auto reference = simulate_reference(stream, policy, {3, false});
    const auto fast = simulate_fast(stream, policy, {3});
    EXPECT_EQ(reference.ones_time(), fast.ones_time()) << policy.name();
    EXPECT_EQ(reference.total_time(), fast.total_time()) << policy.name();
  }
}

TEST_F(SmallStreamFixture, FastMatchesReferenceDnnLifeStatistically) {
  const auto stream = make_stream();
  const auto policy = PolicyConfig::dnn_life(0.5);
  const unsigned inferences = 24;
  const auto reference =
      simulate_reference(stream, policy, {inferences, false});
  const auto fast = simulate_fast(stream, policy, {inferences});
  const aging::CalibratedNbtiDeviceModel model;
  const aging::EnvironmentSegmentView ref_segment{&reference, {}};
  const aging::EnvironmentSegmentView fast_segment{&fast, {}};
  const auto ref_report = make_aging_report({&ref_segment, 1}, model);
  const auto fast_report = make_aging_report({&fast_segment, 1}, model);
  EXPECT_NEAR(ref_report.duty_stats.mean(), fast_report.duty_stats.mean(),
              0.01);
  EXPECT_NEAR(ref_report.snm_stats.mean(), fast_report.snm_stats.mean(), 0.25);
  EXPECT_NEAR(ref_report.duty_stats.stddev(), fast_report.duty_stats.stddev(),
              0.015);
}

TEST_F(SmallStreamFixture, ReferenceDecodeVerificationPasses) {
  const auto stream = make_stream(8 * 1024);
  for (const auto& policy :
       {PolicyConfig::none(), PolicyConfig::inversion(),
        PolicyConfig::barrel_shifter(8), PolicyConfig::dnn_life(0.7)}) {
    // verify_decode = true throws on any decode mismatch.
    EXPECT_NO_THROW(simulate_reference(stream, policy, {2, true}))
        << policy.name();
  }
}

TEST_F(SmallStreamFixture, FastMatchesReferenceDoubleBuffered) {
  sim::BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 16 * 1024;
  config.double_buffered = true;
  const sim::BaselineWeightStream stream(codec_, config);
  for (const auto& policy :
       {PolicyConfig::none(), PolicyConfig::inversion()}) {
    const auto reference = simulate_reference(stream, policy, {3, false});
    const auto fast = simulate_fast(stream, policy, {3});
    EXPECT_EQ(reference.ones_time(), fast.ones_time()) << policy.name();
  }
}

TEST_F(SmallStreamFixture, FastRejectsContinuousCounters) {
  const auto stream = make_stream();
  auto policy = PolicyConfig::inversion();
  policy.reset_each_inference = false;
  EXPECT_THROW(simulate_fast(stream, policy, {2}), std::invalid_argument);
}

TEST_F(SmallStreamFixture, TotalTimeIsBlocksTimesInferences) {
  const auto stream = make_stream();
  const unsigned inferences = 3;
  const auto tracker = simulate_fast(stream, PolicyConfig::none(), {inferences});
  const std::uint32_t expected = stream.blocks_per_inference() * inferences;
  for (std::size_t cell = 0; cell < tracker.cell_count(); ++cell) {
    if (!tracker.is_unused(cell)) {
      ASSERT_EQ(tracker.total_time()[cell], expected) << "cell " << cell;
    }
  }
}

// ---- behavioural properties on synthetic streams -----------------------------

/// Stream with one row written once per inference with a constant word.
sim::VectorWriteStream constant_row_stream(std::uint64_t word) {
  sim::VectorWriteStream stream(sim::MemoryGeometry{1, 64}, 1);
  stream.add_write(0, 0, {word});
  return stream;
}

TEST(PolicyBehaviour, NoMitigationConstantDataAgesMaximally) {
  const auto stream = constant_row_stream(~0ULL);
  const auto tracker = simulate_fast(stream, PolicyConfig::none(), {100});
  for (std::size_t cell = 0; cell < 64; ++cell)
    EXPECT_DOUBLE_EQ(tracker.duty(cell), 1.0);
}

TEST(PolicyBehaviour, InversionCannotFixSingleWritePerInference) {
  // The paper's Fig. 11 (3) pathology: one write per inference, schedule
  // reset => the datum always arrives un-inverted.
  const auto stream = constant_row_stream(~0ULL);
  const auto tracker = simulate_fast(stream, PolicyConfig::inversion(), {100});
  for (std::size_t cell = 0; cell < 64; ++cell)
    EXPECT_DOUBLE_EQ(tracker.duty(cell), 1.0);
}

TEST(PolicyBehaviour, BarrelCannotFixBiasedBits) {
  // All-ones word: any rotation is still all ones (paper observation 3:
  // rotation cannot repair a biased average '1'-probability).
  const auto stream = constant_row_stream(~0ULL);
  const auto tracker =
      simulate_fast(stream, PolicyConfig::barrel_shifter(8), {100});
  for (std::size_t cell = 0; cell < 64; ++cell)
    EXPECT_DOUBLE_EQ(tracker.duty(cell), 1.0);
}

TEST(PolicyBehaviour, DnnLifeFixesConstantData) {
  const auto stream = constant_row_stream(~0ULL);
  const auto tracker =
      simulate_fast(stream, PolicyConfig::dnn_life(0.5), {400});
  for (std::size_t cell = 0; cell < 64; ++cell) {
    // Fresh randomness every inference: duty concentrates at 0.5.
    EXPECT_NEAR(tracker.duty(cell), 0.5, 0.15);
  }
}

TEST(PolicyBehaviour, BiasedTrbgWithoutBalancingIsWorse) {
  const auto stream = constant_row_stream(~0ULL);
  const auto biased =
      simulate_fast(stream, PolicyConfig::dnn_life(0.8, false), {2000});
  const auto balanced =
      simulate_fast(stream, PolicyConfig::dnn_life(0.8, true), {2000});
  // With bias 0.8 and all-ones data, stored bit = 1 XOR E: duty -> 0.2.
  for (std::size_t cell = 0; cell < 64; ++cell) {
    EXPECT_NEAR(biased.duty(cell), 0.2, 0.05);
    EXPECT_NEAR(balanced.duty(cell), 0.5, 0.05);
  }
}

TEST(PolicyBehaviour, BarrelMixesBitPositions) {
  // Word with half the subword bits set: rotation spreads them evenly, so
  // every cell converges to duty 0.5 even though individual bit positions
  // are constant.
  sim::VectorWriteStream stream(sim::MemoryGeometry{1, 64}, 8);
  for (std::uint32_t k = 0; k < 8; ++k)
    stream.add_write(0, k, {0x0f0f0f0f0f0f0f0fULL});
  const auto tracker =
      simulate_fast(stream, PolicyConfig::barrel_shifter(8), {10});
  for (std::size_t cell = 0; cell < 64; ++cell)
    EXPECT_DOUBLE_EQ(tracker.duty(cell), 0.5);
}

TEST(PolicyBehaviour, InversionHalvesBiasWithManyWrites) {
  // Many writes of constant data per inference: alternation gives exact 0.5.
  sim::VectorWriteStream stream(sim::MemoryGeometry{1, 64}, 8);
  for (std::uint32_t k = 0; k < 8; ++k)
    stream.add_write(0, k, {~0ULL});
  const auto tracker = simulate_fast(stream, PolicyConfig::inversion(), {10});
  for (std::size_t cell = 0; cell < 64; ++cell)
    EXPECT_DOUBLE_EQ(tracker.duty(cell), 0.5);
}

TEST(SampleBinomial, ExactAtHalf) {
  util::Xoshiro256ss rng(1);
  const int trials = 20000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) sum += sample_binomial(rng, 100, 0.5);
  EXPECT_NEAR(sum / trials, 50.0, 0.3);
}

TEST(SampleBinomial, ApproximationMeanAndRange) {
  util::Xoshiro256ss rng(2);
  const int trials = 20000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    const auto draw = sample_binomial(rng, 200, 0.3);
    EXPECT_LE(draw, 200u);
    sum += draw;
  }
  EXPECT_NEAR(sum / trials, 60.0, 0.5);
}

TEST(SampleBinomial, SmallNExactLoop) {
  util::Xoshiro256ss rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(sample_binomial(rng, 7, 0.9), 7u);
  EXPECT_EQ(sample_binomial(rng, 10, 0.0), 0u);
  EXPECT_EQ(sample_binomial(rng, 10, 1.0), 10u);
}

}  // namespace
}  // namespace dnnlife::core
