// Tests for the accelerator write streams (baseline + TPU-like NPU) and
// the energy model.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/encoded_rows.hpp"
#include "sim/energy_model.hpp"
#include "sim/tpu_npu.hpp"
#include "util/bitops.hpp"

namespace dnnlife::sim {
namespace {

/// Scalar oracle of the payload build: pack one dataflow row (weight-index
/// slots) with the per-weight codec.encode; padding slots (-1) are zero.
void pack_row_words(const quant::WeightWordCodec& codec,
                    std::span<const std::int64_t> slots,
                    std::span<std::uint64_t> words) {
  std::fill(words.begin(), words.end(), 0);
  const unsigned wb = codec.bits();
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    if (slots[slot] < 0) continue;
    const std::uint64_t value =
        codec.encode(static_cast<std::uint64_t>(slots[slot]));
    const std::size_t bit_pos = slot * wb;
    const std::size_t word = bit_pos / 64;
    const unsigned shift = bit_pos % 64;
    words[word] |= value << shift;
    if (shift + wb > 64) words[word + 1] |= value >> (64 - shift);
  }
}

/// Every payload word of `stream`, in write order.
std::vector<std::uint64_t> stream_words(const WriteStream& stream) {
  std::vector<std::uint64_t> words;
  stream.for_each_write([&](const RowWriteEvent& event) {
    words.insert(words.end(), event.words.begin(), event.words.end());
  });
  return words;
}

/// The oracle's payload words of one inference in `dataflow` order.
std::vector<std::uint64_t> oracle_words(const quant::WeightWordCodec& codec,
                                        DataflowConfig dataflow) {
  const TiledRowSource source(codec.streamer().network(), dataflow);
  const std::size_t per_row =
      util::ceil_div(std::uint64_t{source.slots_per_row()} * codec.bits(), 64);
  std::vector<std::uint64_t> words(source.total_rows() * per_row);
  source.visit_rows([&](std::uint64_t row, std::span<const std::int64_t> slots) {
    pack_row_words(codec, slots,
                   std::span<std::uint64_t>(words.data() + row * per_row,
                                            per_row));
  });
  return words;
}

class StreamTest : public ::testing::Test {
 protected:
  StreamTest()
      : network_(dnn::make_custom_mnist()), streamer_(network_),
        codec_(streamer_, quant::WeightFormat::kInt8Symmetric) {}
  dnn::Network network_;
  dnn::WeightStreamer streamer_;
  quant::WeightWordCodec codec_;
};

TEST_F(StreamTest, PackRowWordsPlacesSlots) {
  // 4 slots of 8 bits packed little-endian.
  const std::vector<std::int64_t> slots = {0, 1, -1, 2};
  std::vector<std::uint64_t> words(1, ~0ULL);
  pack_row_words(codec_, slots, words);
  EXPECT_EQ(words[0] & 0xffu, codec_.encode(0));
  EXPECT_EQ((words[0] >> 8) & 0xffu, codec_.encode(1));
  EXPECT_EQ((words[0] >> 16) & 0xffu, 0u);  // padding slot
  EXPECT_EQ((words[0] >> 24) & 0xffu, codec_.encode(2));
}

TEST_F(StreamTest, BaselineGeometryFollowsConfig) {
  BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 16 * 1024;
  BaselineWeightStream stream(codec_, config);
  // Row = 8 PEs * 8 multipliers * 8 bits = 512 bits = 64 bytes.
  EXPECT_EQ(stream.geometry().row_bits, 512u);
  EXPECT_EQ(stream.geometry().rows, 256u);
}

TEST_F(StreamTest, BaselineBlockCountIsCeilRowsRatio) {
  BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 16 * 1024;
  BaselineWeightStream stream(codec_, config);
  const std::uint64_t total_rows = stream.writes_per_inference();
  EXPECT_EQ(stream.blocks_per_inference(),
            util::ceil_div(total_rows, stream.geometry().rows));
}

TEST_F(StreamTest, BaselineWritesAreBlockOrderedAndInRange) {
  BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 16 * 1024;
  BaselineWeightStream stream(codec_, config);
  std::uint32_t last_block = 0;
  std::uint64_t count = 0;
  stream.for_each_write([&](const RowWriteEvent& event) {
    EXPECT_GE(event.block, last_block);
    last_block = event.block;
    EXPECT_LT(event.row, stream.geometry().rows);
    EXPECT_LT(event.block, stream.blocks_per_inference());
    EXPECT_EQ(event.words.size(), stream.geometry().words_per_row());
    ++count;
  });
  EXPECT_EQ(count, stream.writes_per_inference());
}

TEST_F(StreamTest, BaselineIsDeterministicAcrossEnumerations) {
  BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 8 * 1024;
  BaselineWeightStream stream(codec_, config);
  std::vector<std::uint64_t> first;
  stream.for_each_write([&](const RowWriteEvent& event) {
    first.insert(first.end(), event.words.begin(), event.words.end());
  });
  std::vector<std::uint64_t> second;
  stream.for_each_write([&](const RowWriteEvent& event) {
    second.insert(second.end(), event.words.begin(), event.words.end());
  });
  EXPECT_EQ(first, second);
}

TEST_F(StreamTest, NpuGeometryMatchesTableI) {
  // 256x256 PEs at 8-bit, FIFO 4 tiles deep: 4 * 256 rows * 256 bytes
  // = 256 KB (Table I).
  NpuWeightStream stream(codec_, TpuNpuConfig{});
  EXPECT_EQ(stream.geometry().rows, 1024u);
  EXPECT_EQ(stream.geometry().row_bits, 2048u);
  EXPECT_EQ(stream.geometry().cells(), 256u * 1024 * 8);
}

TEST_F(StreamTest, NpuCircularBufferMapping) {
  NpuWeightStream stream(codec_, TpuNpuConfig{});
  // Custom MNIST net: 25 + 400 + 800 + 256 = 1481 rows -> 6 tiles.
  EXPECT_EQ(stream.writes_per_inference(), 1481u);
  EXPECT_EQ(stream.blocks_per_inference(), 6u);
  stream.for_each_write([&](const RowWriteEvent& event) {
    const std::uint32_t slot = event.block % 4;
    EXPECT_GE(event.row, slot * 256u);
    EXPECT_LT(event.row, (slot + 1) * 256u);
  });
}

TEST_F(StreamTest, NpuSmallerFifoRaisesReuse) {
  TpuNpuConfig deep;
  deep.fifo_tiles = 2;
  NpuWeightStream stream(codec_, deep);
  EXPECT_EQ(stream.geometry().rows, 512u);
  // Same tile count, fewer slots: same blocks, smaller memory.
  EXPECT_EQ(stream.blocks_per_inference(), 6u);
}

TEST_F(StreamTest, Fp32DoublesRowWidth) {
  quant::WeightWordCodec fp32(streamer_, quant::WeightFormat::kFloat32);
  BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 64 * 1024;
  BaselineWeightStream stream(fp32, config);
  EXPECT_EQ(stream.geometry().row_bits, 8u * 8 * 32);
}

TEST_F(StreamTest, DoubleBufferingPingPongsHalves) {
  BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 16 * 1024;
  config.double_buffered = true;
  BaselineWeightStream stream(codec_, config);
  // Same physical geometry, twice the mappings.
  EXPECT_EQ(stream.geometry().rows, 256u);
  BaselineAcceleratorConfig single = config;
  single.double_buffered = false;
  BaselineWeightStream single_stream(codec_, single);
  EXPECT_EQ(stream.blocks_per_inference(),
            util::ceil_div(stream.writes_per_inference(), 128ULL));
  EXPECT_GT(stream.blocks_per_inference(),
            single_stream.blocks_per_inference());
  stream.for_each_write([&](const RowWriteEvent& event) {
    const bool upper_half = event.row >= 128;
    EXPECT_EQ(upper_half, event.block % 2 == 1) << "row " << event.row;
  });
}

TEST_F(StreamTest, DoubleBufferingCoversAllWeights) {
  BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 8 * 1024;
  config.double_buffered = true;
  BaselineWeightStream stream(codec_, config);
  std::uint64_t writes = 0;
  stream.for_each_write([&](const RowWriteEvent&) { ++writes; });
  EXPECT_EQ(writes, stream.writes_per_inference());
}

// ---- EncodedRows against the scalar oracle --------------------------------

TEST(EncodedRows, MatchesScalarOracleForEveryFormatHardwareAndBudget) {
  const dnn::Network network = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(network);
  BaselineAcceleratorConfig baseline;
  baseline.weight_memory_bytes = 16 * 1024;
  BaselineAcceleratorConfig double_buffered = baseline;
  double_buffered.double_buffered = true;
  for (const quant::WeightFormat format :
       {quant::WeightFormat::kFloat32, quant::WeightFormat::kInt8Symmetric,
        quant::WeightFormat::kInt8Asymmetric}) {
    const quant::WeightWordCodec codec(streamer, format);
    const std::vector<std::uint64_t> npu_oracle =
        oracle_words(codec, npu_dataflow(TpuNpuConfig{}));
    const std::vector<std::uint64_t> baseline_oracle =
        oracle_words(codec, baseline_dataflow(baseline));
    for (const unsigned threads : {1u, 3u, 4u}) {
      SCOPED_TRACE(quant::to_string(format) + " at budget " +
                   std::to_string(threads));
      const auto npu_rows =
          EncodedRows::build(codec, npu_dataflow(TpuNpuConfig{}), threads);
      const auto baseline_rows =
          EncodedRows::build(codec, baseline_dataflow(baseline), threads);
      EXPECT_EQ(stream_words(NpuWeightStream(npu_rows)), npu_oracle);
      EXPECT_EQ(stream_words(BaselineWeightStream(baseline_rows, baseline)),
                baseline_oracle);
      // Double buffering moves rows, never payloads.
      EXPECT_EQ(
          stream_words(BaselineWeightStream(baseline_rows, double_buffered)),
          baseline_oracle);
    }
  }
}

TEST(EncodedRows, SharedArtifactReplaysIntoEitherConstructor) {
  const dnn::Network network = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(network);
  const quant::WeightWordCodec codec(streamer,
                                     quant::WeightFormat::kInt8Symmetric);
  const TpuNpuConfig config;
  const auto rows = EncodedRows::build(codec, npu_dataflow(config), 2);
  EXPECT_EQ(rows->key(),
            EncodedRows::key_of("custom_mnist", dnn::WeightGenConfig{},
                                quant::WeightFormat::kInt8Symmetric,
                                npu_dataflow(config)));
  const NpuWeightStream shared(rows, config);
  const NpuWeightStream built(codec, config);
  EXPECT_EQ(shared.geometry().rows, built.geometry().rows);
  EXPECT_EQ(shared.blocks_per_inference(), built.blocks_per_inference());
  EXPECT_EQ(stream_words(shared), stream_words(built));
  // An artifact replays only into the dataflow it was built for.
  EXPECT_THROW(BaselineWeightStream(rows, BaselineAcceleratorConfig{}),
               std::invalid_argument);
}

/// Both int8 formats x both dataflows of `network`, each built at every
/// budget in `budgets`, against the scalar oracle.
void expect_int8_builds_match_oracle(const dnn::Network& network,
                                     std::initializer_list<unsigned> budgets) {
  const dnn::WeightStreamer streamer(network);
  TpuNpuConfig npu;
  npu.array_dim = 128;
  const BaselineAcceleratorConfig baseline;
  for (const quant::WeightFormat format :
       {quant::WeightFormat::kInt8Symmetric,
        quant::WeightFormat::kInt8Asymmetric}) {
    const quant::WeightWordCodec codec(streamer, format);
    for (const DataflowConfig dataflow :
         {npu_dataflow(npu), baseline_dataflow(baseline)}) {
      const std::vector<std::uint64_t> oracle = oracle_words(codec, dataflow);
      for (const unsigned threads : budgets) {
        SCOPED_TRACE(network.name() + " " + quant::to_string(format) + " " +
                     std::to_string(dataflow.filters_per_set) + "x" +
                     std::to_string(dataflow.weights_per_filter_per_row) +
                     " at budget " + std::to_string(threads));
        const auto rows = EncodedRows::build(codec, dataflow, threads);
        ASSERT_EQ(rows->rows() * rows->words_per_row(), oracle.size());
        for (std::uint64_t r = 0; r < rows->rows(); ++r) {
          const auto row = rows->row(r);
          ASSERT_TRUE(std::equal(row.begin(), row.end(),
                                 oracle.begin() + r * rows->words_per_row()))
              << "row " << r;
        }
      }
    }
  }
}

TEST(PayloadOracle, GoogLeNetInt8BothFormatsDataflowsAndBudgets) {
  expect_int8_builds_match_oracle(dnn::make_googlenet(), {1u, 4u});
}

// The big networks: AlexNet's fully-connected layers are over 4 Mi weights
// each. Minutes of oracle work, so CI runs it on its own in Release:
//   dnnlife_tests --gtest_also_run_disabled_tests
//                 --gtest_filter='PayloadOracle.DISABLED_*'
TEST(PayloadOracle, DISABLED_AlexNetAndResNet152Int8) {
  expect_int8_builds_match_oracle(dnn::make_alexnet(), {4u});
  expect_int8_builds_match_oracle(dnn::make_resnet152(), {4u});
}

TEST(PayloadOracle, RegeneratesLayersPastTheKeepBuffer) {
  // One fully-connected layer over 4 Mi weights, with the float32 fill
  // path and the int8 draw-threshold path each packing it tile by tile.
  const dnn::Network network("wide_fc",
                             {dnn::LayerSpec::fully_connected("fc", 2049, 2048)});
  ASSERT_GT(network.total_weights(), std::uint64_t{1} << 22);
  const dnn::WeightStreamer streamer(network);
  for (const quant::WeightFormat format :
       {quant::WeightFormat::kInt8Asymmetric, quant::WeightFormat::kFloat32}) {
    const quant::WeightWordCodec codec(streamer, format);
    BaselineAcceleratorConfig baseline;
    EXPECT_EQ(stream_words(BaselineWeightStream(
                  EncodedRows::build(codec, baseline_dataflow(baseline), 4),
                  baseline)),
              oracle_words(codec, baseline_dataflow(baseline)))
        << quant::to_string(format);
  }
}

// ---- energy model ------------------------------------------------------------

TEST(EnergyModel, Fig1bRatio) {
  EnergyModel model;
  // Fig. 1b: DRAM is two orders of magnitude above SRAM.
  EXPECT_NEAR(model.dram_access_pj(32) / model.sram_access_pj(32), 128.0, 1.0);
}

TEST(EnergyModel, ScalesLinearlyWithBits) {
  EnergyModel model;
  EXPECT_DOUBLE_EQ(model.sram_access_pj(64), 2.0 * model.sram_access_pj(32));
  EXPECT_DOUBLE_EQ(model.dram_access_pj(512), 16.0 * model.dram_access_pj(32));
}

TEST(EnergyModel, InferenceWriteEnergyCountsRows) {
  EnergyModel model;
  VectorWriteStream stream(geometry_from_capacity(1024, 64), 2);
  stream.add_write(0, 0, std::vector<std::uint64_t>(1, 0));
  stream.add_write(1, 1, std::vector<std::uint64_t>(1, 0));
  EXPECT_DOUBLE_EQ(model.inference_weight_write_pj(stream),
                   2.0 * model.sram_access_pj(64));
}

TEST(EnergyModel, TransducerOverheadConvertsUnits) {
  EnergyModel model;
  VectorWriteStream stream(geometry_from_capacity(1024, 64), 1);
  stream.add_write(0, 0, std::vector<std::uint64_t>(1, 0));
  // 100 fJ encode + 100 fJ decode on one write = 0.2 pJ.
  EXPECT_NEAR(model.transducer_overhead_pj(stream, 100.0, 100.0, 1.0), 0.2,
              1e-12);
}

TEST(EnergyModel, RejectsBadParams) {
  AccessEnergyParams params;
  params.sram32_pj = 0.0;
  EXPECT_THROW(EnergyModel{params}, std::invalid_argument);
}

// ---- VectorWriteStream --------------------------------------------------------

TEST(VectorWriteStream, EnforcesInvariants) {
  VectorWriteStream stream(geometry_from_capacity(1024, 64), 2);
  stream.add_write(0, 1, std::vector<std::uint64_t>(1, 0));
  // Blocks must be non-decreasing.
  EXPECT_THROW(stream.add_write(0, 0, std::vector<std::uint64_t>(1, 0)),
               std::invalid_argument);
  EXPECT_THROW(stream.add_write(200, 1, std::vector<std::uint64_t>(1, 0)),
               std::invalid_argument);
  EXPECT_THROW(stream.add_write(0, 5, std::vector<std::uint64_t>(1, 0)),
               std::invalid_argument);
}

TEST(VectorWriteStream, RejectsPayloadAboveRowWidth) {
  VectorWriteStream stream(geometry_from_capacity(8, 32), 1);
  EXPECT_THROW(stream.add_write(0, 0, std::vector<std::uint64_t>{1ULL << 40}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dnnlife::sim
