// Tests for memory geometry, the Fig. 5 tiled dataflow and the weight
// memory functional model.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "dnn/model_zoo.hpp"
#include "sim/dataflow.hpp"
#include "sim/memory_geometry.hpp"
#include "sim/weight_memory.hpp"

namespace dnnlife::sim {
namespace {

TEST(MemoryGeometry, FromCapacity) {
  const auto geometry = geometry_from_capacity(512 * 1024, 512);
  EXPECT_EQ(geometry.rows, 8192u);
  EXPECT_EQ(geometry.row_bits, 512u);
  EXPECT_EQ(geometry.cells(), 512u * 1024 * 8);
  EXPECT_EQ(geometry.words_per_row(), 8u);
}

TEST(MemoryGeometry, PaperTableIBaseline) {
  // Baseline: 512 KB weight memory, f = 8 PEs x 8 multipliers, 8-bit
  // weights: rows of 64 weights.
  const auto geometry = geometry_from_capacity(512 * 1024, 8 * 8 * 8);
  EXPECT_EQ(geometry.rows, 8192u);
}

TEST(MemoryGeometry, CellIndexBounds) {
  const auto geometry = geometry_from_capacity(1024, 64);
  EXPECT_EQ(geometry.cell_index(0, 0), 0u);
  EXPECT_EQ(geometry.cell_index(1, 0), 64u);
  EXPECT_THROW(geometry.cell_index(geometry.rows, 0), std::invalid_argument);
  EXPECT_THROW(geometry.cell_index(0, 64), std::invalid_argument);
}

TEST(MemoryGeometry, RejectsNonByteRows) {
  EXPECT_THROW(geometry_from_capacity(1024, 63), std::invalid_argument);
  EXPECT_THROW(geometry_from_capacity(4, 64), std::invalid_argument);
}

TEST(TiledRowSource, RowCountMatchesFormula) {
  const dnn::Network net = dnn::make_custom_mnist();
  TiledRowSource source(net, DataflowConfig{256, 1});
  // Per layer: ceil(filters/f) * wpf rows (N = 1).
  // conv1: 1 set * 25; conv2: 1 * 400; fc1: 1 * 800; fc2: 1 * 256.
  EXPECT_EQ(source.total_rows(), 25u + 400 + 800 + 256);
}

TEST(TiledRowSource, RowCountWithMultipleSets) {
  const dnn::Network net = dnn::make_custom_mnist();
  TiledRowSource source(net, DataflowConfig{8, 8});
  // conv1: 16 filters -> 2 sets, wpf = 25 -> ceil(25/8) = 4 rows: 8 rows.
  // conv2: 50 -> 7 sets, wpf = 400 -> 50 rows: 350.
  // fc1: 256 -> 32 sets, wpf = 800 -> 100 rows: 3200.
  // fc2: 10 -> 2 sets, wpf = 256 -> 32 rows: 64.
  EXPECT_EQ(source.total_rows(), 8u + 350 + 3200 + 64);
}

TEST(TiledRowSource, EveryWeightAppearsExactlyOnce) {
  const dnn::Network net = dnn::make_custom_mnist();
  TiledRowSource source(net, DataflowConfig{8, 4});
  std::map<std::int64_t, int> seen;
  source.visit_rows([&](std::uint64_t, std::span<const std::int64_t> slots) {
    for (std::int64_t g : slots) {
      if (g >= 0) ++seen[g];
    }
  });
  EXPECT_EQ(seen.size(), net.total_weights());
  for (const auto& [g, count] : seen) {
    EXPECT_EQ(count, 1) << "weight " << g;
    EXPECT_LT(static_cast<std::uint64_t>(g), net.total_weights());
  }
}

TEST(TiledRowSource, RowLayoutInterleavesFilters) {
  // One FC layer, 4 filters of 6 weights, f = 2, N = 3: set 0 holds
  // filters 0 and 1; its first row carries weights 0..2 of filter 0 then
  // weights 0..2 of filter 1 (Fig. 4b layout).
  dnn::Network net("t", {dnn::LayerSpec::fully_connected("fc", 4, 6)});
  TiledRowSource source(net, DataflowConfig{2, 3});
  std::vector<std::vector<std::int64_t>> rows;
  source.visit_rows([&](std::uint64_t, std::span<const std::int64_t> slots) {
    rows.emplace_back(slots.begin(), slots.end());
  });
  ASSERT_EQ(rows.size(), 4u);  // 2 sets x 2 rows
  EXPECT_EQ(rows[0], (std::vector<std::int64_t>{0, 1, 2, 6, 7, 8}));
  EXPECT_EQ(rows[1], (std::vector<std::int64_t>{3, 4, 5, 9, 10, 11}));
  EXPECT_EQ(rows[2], (std::vector<std::int64_t>{12, 13, 14, 18, 19, 20}));
}

TEST(TiledRowSource, PadsPartialSetsAndFilters) {
  // 3 filters of 5 weights, f = 2, N = 2: second set has one real filter;
  // last row of each set has one real weight column.
  dnn::Network net("t", {dnn::LayerSpec::fully_connected("fc", 3, 5)});
  TiledRowSource source(net, DataflowConfig{2, 2});
  std::size_t padding = 0;
  std::size_t real = 0;
  source.visit_rows([&](std::uint64_t, std::span<const std::int64_t> slots) {
    for (std::int64_t g : slots) (g < 0 ? padding : real) += 1;
  });
  EXPECT_EQ(real, net.total_weights());
  // 2 sets * 3 rows * 4 slots = 24 slots; 15 real weights -> 9 padding.
  EXPECT_EQ(padding, 9u);
}

TEST(WeightMemory, WriteReadRoundTrip) {
  WeightMemory memory(geometry_from_capacity(1024, 128));
  const std::vector<std::uint64_t> row = {0xdeadbeefcafebabeULL, 0x0123456789abcdefULL};
  EXPECT_FALSE(memory.row_written(3));
  memory.write_row(3, row);
  EXPECT_TRUE(memory.row_written(3));
  const auto read = memory.read_row(3);
  EXPECT_EQ(std::vector<std::uint64_t>(read.begin(), read.end()), row);
}

TEST(WeightMemory, BitAccess) {
  WeightMemory memory(geometry_from_capacity(1024, 128));
  memory.write_row(0, std::vector<std::uint64_t>{0b101ULL, 0});
  EXPECT_TRUE(memory.bit(0, 0));
  EXPECT_FALSE(memory.bit(0, 1));
  EXPECT_TRUE(memory.bit(0, 2));
  EXPECT_FALSE(memory.bit(0, 64));
  EXPECT_THROW(memory.bit(0, 128), std::invalid_argument);
}

TEST(WeightMemory, RejectsBadWrites) {
  WeightMemory memory(geometry_from_capacity(1024, 128));
  EXPECT_THROW(memory.write_row(100, std::vector<std::uint64_t>(2, 0)),
               std::invalid_argument);
  EXPECT_THROW(memory.write_row(0, std::vector<std::uint64_t>(1, 0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace dnnlife::sim
