// Tests for shape propagation, the compute-time residency model and
// duration-weighted simulation.
#include <gtest/gtest.h>

#include "core/fast_simulator.hpp"
#include "core/reference_simulator.hpp"
#include "dnn/model_zoo.hpp"
#include "dnn/shapes.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/compute_model.hpp"

namespace dnnlife {
namespace {

TEST(Shapes, AlexNetFlattenMatchesFc6) {
  const dnn::Network net = dnn::make_alexnet();
  const auto shapes = dnn::propagate_shapes(net, {3, 227, 227});
  // conv1: (227-11)/4+1 = 55.
  EXPECT_EQ(shapes[0].height, 55u);
  // pool5 output must flatten to fc6's 9216 inputs (256 * 6 * 6).
  std::size_t pool5 = 0;
  for (std::size_t i = 0; i < net.layers().size(); ++i)
    if (net.layers()[i].name == "pool5") pool5 = i;
  EXPECT_EQ(shapes[pool5].elements(), 9216u);
}

TEST(Shapes, Vgg16FlattenMatchesFc6) {
  const dnn::Network net = dnn::make_vgg16();
  const auto shapes = dnn::propagate_shapes(net, {3, 224, 224});
  std::size_t pool5 = 0;
  for (std::size_t i = 0; i < net.layers().size(); ++i)
    if (net.layers()[i].name == "pool5") pool5 = i;
  EXPECT_EQ(shapes[pool5], (dnn::SpatialShape{512, 7, 7}));
  EXPECT_EQ(shapes[pool5].elements(), 25088u);
}

TEST(Shapes, CustomMnistFlattenMatchesFc1) {
  const dnn::Network net = dnn::make_custom_mnist();
  const auto shapes = dnn::propagate_shapes(net, {1, 28, 28});
  // 28 -> conv 24 -> pool 12 -> conv 8 -> pool 4; 50*4*4 = 800.
  std::size_t pool2 = 0;
  for (std::size_t i = 0; i < net.layers().size(); ++i)
    if (net.layers()[i].name == "pool2") pool2 = i;
  EXPECT_EQ(shapes[pool2].elements(), 800u);
}

TEST(Shapes, DefaultInputShapes) {
  EXPECT_EQ(dnn::default_input_shape("alexnet"),
            (dnn::SpatialShape{3, 227, 227}));
  EXPECT_EQ(dnn::default_input_shape("custom_mnist"),
            (dnn::SpatialShape{1, 28, 28}));
  EXPECT_THROW(dnn::default_input_shape("googlenet"), std::invalid_argument);
}

TEST(Shapes, RejectsInconsistentInput) {
  const dnn::Network net = dnn::make_custom_mnist();
  EXPECT_THROW(dnn::propagate_shapes(net, {3, 28, 28}), std::invalid_argument);
  EXPECT_THROW(dnn::propagate_shapes(net, {1, 4, 4}), std::invalid_argument);
}

TEST(Shapes, WeightedLayerPositions) {
  const dnn::Network net = dnn::make_custom_mnist();
  const auto positions = dnn::weighted_layer_positions(net, {1, 28, 28});
  ASSERT_EQ(positions.size(), 4u);
  EXPECT_EQ(positions[0], 24u * 24);  // conv1 output positions
  EXPECT_EQ(positions[1], 8u * 8);    // conv2
  EXPECT_EQ(positions[2], 1u);        // fc1
  EXPECT_EQ(positions[3], 1u);        // fc2
}

TEST(ComputeModel, RowCostsCoverAllRows) {
  const dnn::Network net = dnn::make_custom_mnist();
  const sim::DataflowConfig config{8, 8};
  const auto segments = sim::dataflow_row_costs(net, config, {1, 28, 28});
  const sim::TiledRowSource source(net, config);
  std::uint64_t rows = 0;
  for (const auto& segment : segments) rows += segment.rows;
  EXPECT_EQ(rows, source.total_rows());
  // Conv rows cost more than FC rows (positions per weight).
  EXPECT_GT(segments[0].cost, segments[2].cost);
}

TEST(ComputeModel, BlockDurationsQuantised) {
  const std::vector<sim::RowCostSegment> segments = {{10, 100.0}, {10, 1.0}};
  const auto durations = sim::block_durations_from_costs(segments, 5, 64);
  ASSERT_EQ(durations.size(), 4u);
  // Mean ~64, every duration positive, heavy blocks >> light blocks.
  for (std::uint32_t d : durations) EXPECT_GE(d, 1u);
  EXPECT_GT(durations[0], durations[3] * 10);
  EXPECT_EQ(durations[0], durations[1]);
}

TEST(ComputeModel, PartialTailBlock) {
  const std::vector<sim::RowCostSegment> segments = {{7, 2.0}};
  const auto durations = sim::block_durations_from_costs(segments, 5, 10);
  ASSERT_EQ(durations.size(), 2u);  // 5 rows + 2-row tail
  EXPECT_GT(durations[0], durations[1]);
}

TEST(DurationWeighting, FastMatchesReferenceWithDurations) {
  // Two rows, three blocks with distinct durations.
  sim::VectorWriteStream stream(sim::MemoryGeometry{2, 64}, 3);
  stream.add_write(0, 0, {0xffffffff00000000ULL});
  stream.add_write(1, 0, {0x00000000ffffffffULL});
  stream.add_write(0, 1, {0x0f0f0f0f0f0f0f0fULL});
  stream.add_write(0, 2, {0x3333333333333333ULL});
  stream.set_block_durations({5, 2, 9});
  for (const auto& policy : {core::PolicyConfig::none(),
                             core::PolicyConfig::inversion(),
                             core::PolicyConfig::barrel_shifter(8)}) {
    const auto reference =
        core::simulate_reference(stream, policy, {3, false});
    const auto fast = core::simulate_fast(stream, policy, {3});
    EXPECT_EQ(reference.ones_time(), fast.ones_time()) << policy.name();
    EXPECT_EQ(reference.total_time(), fast.total_time()) << policy.name();
  }
}

TEST(DurationWeighting, DutyFollowsResidencyWeights) {
  // One row, two blocks: all-ones resident for d0, all-zeros for d1.
  sim::VectorWriteStream stream(sim::MemoryGeometry{1, 64}, 2);
  stream.add_write(0, 0, {~0ULL});
  stream.add_write(0, 1, {0ULL});
  stream.set_block_durations({3, 1});
  const auto tracker = core::simulate_fast(stream, core::PolicyConfig::none(), {10});
  for (std::size_t cell = 0; cell < 64; ++cell)
    EXPECT_DOUBLE_EQ(tracker.duty(cell), 0.75);
}

TEST(DurationWeighting, BaselineStreamComputesDurations) {
  const dnn::Network net = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(net);
  const quant::WeightWordCodec codec(streamer, quant::WeightFormat::kInt8Symmetric);
  sim::BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 16 * 1024;
  config.compute_weighted_residency = true;
  const sim::BaselineWeightStream stream(codec, config);
  const auto durations = stream.block_durations();
  ASSERT_EQ(durations.size(), stream.blocks_per_inference());
  // The conv-heavy early blocks must out-weigh the FC-dominated tail.
  EXPECT_GT(durations.front(), durations.back());
  // Simulation accepts the weighted stream.
  const auto tracker =
      core::simulate_fast(stream, core::PolicyConfig::dnn_life(0.5), {20});
  EXPECT_EQ(tracker.unused_cell_count(), 0u);
}

TEST(DurationWeighting, RejectsBadDurations) {
  sim::VectorWriteStream stream(sim::MemoryGeometry{1, 64}, 2);
  stream.add_write(0, 0, {0ULL});
  EXPECT_THROW(stream.set_block_durations({1}), std::invalid_argument);
  EXPECT_THROW(stream.set_block_durations({1, 0}), std::invalid_argument);
}

}  // namespace
}  // namespace dnnlife
