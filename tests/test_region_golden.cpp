// Golden equivalence of the policy-engine/region refactor against the
// pre-refactor simulators, plus region-map behaviour.
//
// The FNV-1a hashes below were captured from the switch-dispatch
// implementation that predates the PolicyEngine abstraction (PR 1 state),
// on the same golden stream tests/test_golden_equivalence.cpp uses. The
// engine-based simulators must reproduce every accumulator bit-identically
// — through the plain PolicyConfig wrappers, through an explicit uniform
// RegionPolicyTable, and for any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "aging/snm_histogram.hpp"
#include "aging/device_model.hpp"
#include "core/fast_simulator.hpp"
#include "core/reference_simulator.hpp"
#include "core/region_policy.hpp"
#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/region_map.hpp"
#include "util/bitops.hpp"

namespace dnnlife::core {
namespace {

std::uint64_t fnv1a(std::uint64_t hash, const std::vector<std::uint32_t>& v) {
  for (const std::uint32_t x : v) {
    for (int b = 0; b < 4; ++b) {
      hash ^= (x >> (8 * b)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

std::uint64_t tracker_hash(const aging::DutyCycleTracker& tracker) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  hash = fnv1a(hash, tracker.ones_time());
  return fnv1a(hash, tracker.total_time());
}

/// The same stream as tests/test_golden_equivalence.cpp (the hashes were
/// captured against it).
sim::VectorWriteStream make_golden_stream() {
  sim::VectorWriteStream stream(sim::MemoryGeometry{6, 96}, 5);
  const std::vector<std::uint64_t> a{0x0123456789abcdefULL, 0x0000000055aa55aaULL};
  const std::vector<std::uint64_t> b{0xdeadbeefcafef00dULL, 0x00000000ffff0000ULL};
  const std::vector<std::uint64_t> c{0x5555555555555555ULL, 0x0000000033333333ULL};
  const std::vector<std::uint64_t> zeros{0, 0};
  const std::vector<std::uint64_t> ones{~0ULL, util::low_mask(32)};
  stream.add_write(0, 0, a);
  stream.add_write(1, 0, b);
  stream.add_write(2, 1, c);
  stream.add_write(3, 1, a);
  stream.add_write(3, 1, b);
  stream.add_write(0, 2, c);
  stream.add_write(4, 2, zeros);
  stream.add_write(1, 3, b);
  stream.add_write(0, 4, b);
  stream.add_write(5, 4, ones);
  return stream;
}

struct PinnedCase {
  PolicyConfig policy;
  std::uint64_t reference_hash;
  std::uint64_t fast_hash;
};

/// Hashes of simulate_reference(stream, policy, {16, false}) and
/// simulate_fast(stream, policy, {16, 1}) from the pre-refactor build.
std::vector<PinnedCase> pinned_cases(bool non_uniform) {
  if (!non_uniform) {
    return {
        {PolicyConfig::none(), 0x5da63caa865515a5ULL, 0x5da63caa865515a5ULL},
        {PolicyConfig::inversion(), 0x4fe08679650011e5ULL, 0x4fe08679650011e5ULL},
        {PolicyConfig::barrel_shifter(8), 0xa0d174c7c9972625ULL, 0xa0d174c7c9972625ULL},
        {PolicyConfig::dnn_life(1.0), 0xac2b4c43035fdf25ULL, 0xac2b4c43035fdf25ULL},
        {PolicyConfig::dnn_life(0.0), 0xac2b4c43035fdf25ULL, 0xac2b4c43035fdf25ULL},
        {PolicyConfig::dnn_life(0.5), 0x0bf3569d7f0b8df5ULL, 0xa9cc36e26f48e635ULL},
        {PolicyConfig::dnn_life(0.7, true, 4), 0x3febea175db3c62dULL, 0xf9ae66e64dc5f7a5ULL},
    };
  }
  return {
      {PolicyConfig::none(), 0x92d222bcbfd8d3a5ULL, 0x92d222bcbfd8d3a5ULL},
      {PolicyConfig::inversion(), 0xb9da9166388220e5ULL, 0xb9da9166388220e5ULL},
      {PolicyConfig::barrel_shifter(8), 0xea3b0ef45de833e5ULL, 0xea3b0ef45de833e5ULL},
      {PolicyConfig::dnn_life(1.0), 0xe85b4c3a25823325ULL, 0xe85b4c3a25823325ULL},
      {PolicyConfig::dnn_life(0.0), 0xe85b4c3a25823325ULL, 0xe85b4c3a25823325ULL},
      {PolicyConfig::dnn_life(0.5), 0xeff08ce8be536505ULL, 0x5d365909a7a04665ULL},
      {PolicyConfig::dnn_life(0.7, true, 4), 0x03574b0d77870ed5ULL, 0xdbd64c92666ca015ULL},
  };
}

class PreRefactorGolden : public ::testing::TestWithParam<bool> {};

TEST_P(PreRefactorGolden, EngineMatchesPreRefactorPathBitIdentically) {
  auto stream = make_golden_stream();
  if (GetParam()) stream.set_block_durations({3, 1, 4, 2, 5});
  const auto uniform_table = [&](const PolicyConfig& policy) {
    return RegionPolicyTable::uniform(stream.geometry(), policy);
  };
  for (const PinnedCase& pinned : pinned_cases(GetParam())) {
    const std::string label = pinned.policy.name();
    // Plain-PolicyConfig wrappers.
    EXPECT_EQ(tracker_hash(simulate_reference(stream, pinned.policy,
                                              {16, false})),
              pinned.reference_hash)
        << "reference " << label;
    EXPECT_EQ(tracker_hash(simulate_fast(stream, pinned.policy, {16, 1})),
              pinned.fast_hash)
        << "fast " << label;
    // Explicit single whole-memory region.
    EXPECT_EQ(tracker_hash(simulate_reference(stream, uniform_table(pinned.policy),
                                              {16, false})),
              pinned.reference_hash)
        << "reference/uniform-region " << label;
    EXPECT_EQ(tracker_hash(simulate_fast(stream, uniform_table(pinned.policy),
                                         {16, 1})),
              pinned.fast_hash)
        << "fast/uniform-region 1 thread " << label;
    // Sharded commit must not change a single bit.
    EXPECT_EQ(tracker_hash(simulate_fast(stream, uniform_table(pinned.policy),
                                         {16, 4})),
              pinned.fast_hash)
        << "fast/uniform-region 4 threads " << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Durations, PreRefactorGolden,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "non_uniform" : "uniform";
                         });

/// Hashes of simulate_fast(stream, policy, {8, 1}) on the custom MNIST
/// network's 16 KB baseline-accelerator stream, pre-refactor build.
TEST(PreRefactorGolden, BaselineAcceleratorStreamMatches) {
  const dnn::Network net = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(net);
  const quant::WeightWordCodec codec(streamer,
                                     quant::WeightFormat::kInt8Symmetric);
  sim::BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 16 * 1024;
  const sim::BaselineWeightStream stream(codec, config);
  const std::vector<PinnedCase> cases = {
      {PolicyConfig::none(), 0, 0xbe86c842482b30e5ULL},
      {PolicyConfig::inversion(), 0, 0x2f102f40411b77a5ULL},
      {PolicyConfig::barrel_shifter(8), 0, 0x137d78f3b9643cf5ULL},
      {PolicyConfig::dnn_life(1.0), 0, 0x5197994303808de3ULL},
      {PolicyConfig::dnn_life(0.0), 0, 0xe84e5c11292568e3ULL},
      {PolicyConfig::dnn_life(0.5), 0, 0x40cf01a9ea10eb41ULL},
      {PolicyConfig::dnn_life(0.7, true, 4), 0, 0x129d48e6c89ea1f1ULL},
  };
  for (const PinnedCase& pinned : cases) {
    EXPECT_EQ(tracker_hash(simulate_fast(stream, pinned.policy, {8, 1})),
              pinned.fast_hash)
        << pinned.policy.name();
    EXPECT_EQ(tracker_hash(simulate_fast(
                  stream,
                  RegionPolicyTable::uniform(stream.geometry(), pinned.policy),
                  {8, 4})),
              pinned.fast_hash)
        << pinned.policy.name() << " (uniform region, 4 threads)";
  }
}

// ---- hybrid two-region behaviour ---------------------------------------------

RegionPolicyTable hybrid_table(const sim::MemoryGeometry& geometry,
                               std::uint32_t split_row,
                               const PolicyConfig& hot,
                               const PolicyConfig& cold) {
  return RegionPolicyTable(
      sim::MemoryRegionMap(
          geometry, {sim::MemoryRegion{"hot", 0, split_row},
                     sim::MemoryRegion{"cold", split_row, geometry.rows}}),
      {hot, cold});
}

TEST(RegionPolicy, HybridRegionsMatchPerRegionUniformRuns) {
  // Each region's cells must age exactly as if its policy ran uniformly:
  // rows are independent under the fast simulator's aggregation, and each
  // region has its own engine with its own write ordinals.
  auto stream = make_golden_stream();
  const sim::MemoryGeometry geometry = stream.geometry();
  const auto hot = PolicyConfig::dnn_life(0.5);
  const auto cold = PolicyConfig::none();
  const std::uint32_t split = 3;
  const auto hybrid =
      simulate_fast(stream, hybrid_table(geometry, split, hot, cold), {12, 1});
  const auto uniform_cold = simulate_fast(stream, cold, {12, 1});
  // Cold region (rows >= split) matches the uniform no-mitigation run.
  for (std::size_t cell = static_cast<std::size_t>(split) * geometry.row_bits;
       cell < geometry.cells(); ++cell) {
    ASSERT_EQ(hybrid.ones_time()[cell], uniform_cold.ones_time()[cell])
        << "cell " << cell;
    ASSERT_EQ(hybrid.total_time()[cell], uniform_cold.total_time()[cell])
        << "cell " << cell;
  }
  // Hot region: the DNN-Life engine observes region-local write ordinals,
  // so the hybrid hot cells match a uniform DNN-Life run only in
  // distribution, not bit-for-bit; check total time (policy-independent)
  // and that randomisation actually happened (some ones-time differs from
  // the unmitigated run).
  const auto uniform_hot = simulate_fast(stream, hot, {12, 1});
  bool differs = false;
  for (std::size_t cell = 0;
       cell < static_cast<std::size_t>(split) * geometry.row_bits; ++cell) {
    ASSERT_EQ(hybrid.total_time()[cell], uniform_hot.total_time()[cell]);
    differs |= hybrid.ones_time()[cell] != uniform_cold.ones_time()[cell];
  }
  EXPECT_TRUE(differs);
}

TEST(RegionPolicy, RegionsSharingASeedDrawDecorrelatedRandomness) {
  // Two symmetric regions under DNN-Life with the same configured seed:
  // without per-region seed derivation, write k of region A and write k
  // of region B would sample identical inverted-inference counts, making
  // the regions bit-for-bit clones. Eight independent draws per row make
  // an accidental full collision vanishingly unlikely (~1e-9).
  sim::VectorWriteStream stream(sim::MemoryGeometry{2, 64}, 8);
  for (std::uint32_t k = 0; k < 8; ++k) {
    stream.add_write(0, k, {0x0123456789abcdefULL});
    stream.add_write(1, k, {0x0123456789abcdefULL});
  }
  const auto policy = PolicyConfig::dnn_life(0.5);
  const auto tracker = simulate_fast(
      stream, hybrid_table(stream.geometry(), 1, policy, policy), {100, 1});
  const std::vector<std::uint32_t>& ones = tracker.ones_time();
  const bool rows_identical =
      std::equal(ones.begin(), ones.begin() + 64, ones.begin() + 64);
  EXPECT_FALSE(rows_identical);
}

TEST(RegionPolicy, HybridReferenceAndThreadCountsAgree) {
  auto stream = make_golden_stream();
  const auto table = hybrid_table(stream.geometry(), 2,
                                  PolicyConfig::inversion(),
                                  PolicyConfig::barrel_shifter(8));
  const auto reference = simulate_reference(stream, table, {6, true});
  const auto fast1 = simulate_fast(stream, table, {6, 1});
  const auto fast4 = simulate_fast(stream, table, {6, 4});
  EXPECT_EQ(reference.ones_time(), fast1.ones_time());
  EXPECT_EQ(reference.total_time(), fast1.total_time());
  EXPECT_EQ(fast1.ones_time(), fast4.ones_time());
  EXPECT_EQ(fast1.total_time(), fast4.total_time());
}

TEST(RegionPolicy, ReportBreaksOutPerRegion) {
  auto stream = make_golden_stream();
  const auto table = hybrid_table(stream.geometry(), 3,
                                  PolicyConfig::dnn_life(0.5),
                                  PolicyConfig::none());
  const auto tracker = simulate_fast(stream, table, {16, 1});
  ASSERT_EQ(tracker.regions().size(), 2u);
  EXPECT_EQ(tracker.regions()[0].name, "hot");
  EXPECT_EQ(tracker.regions()[1].name, "cold");
  const aging::CalibratedNbtiDeviceModel model;
  const aging::EnvironmentSegmentView segment{&tracker, {}};
  const auto report = make_aging_report({&segment, 1}, model);
  ASSERT_EQ(report.regions.size(), 2u);
  EXPECT_EQ(report.regions[0].total_cells, 3u * 96);
  EXPECT_EQ(report.regions[1].total_cells, 3u * 96);
  EXPECT_EQ(report.regions[0].unused_cells + report.regions[1].unused_cells,
            report.unused_cells);
  // Per-region stats must partition the whole-memory stats.
  EXPECT_EQ(report.regions[0].snm_stats.count() +
                report.regions[1].snm_stats.count(),
            report.snm_stats.count());
  EXPECT_NE(report.to_string().find("region 'hot'"), std::string::npos);
}

// ---- region-map validation ---------------------------------------------------

TEST(MemoryRegionMap, ValidatesPartition) {
  const sim::MemoryGeometry geometry{8, 64};
  EXPECT_NO_THROW(sim::MemoryRegionMap(
      geometry, {{"a", 0, 4}, {"b", 4, 8}}));
  // Gap.
  EXPECT_THROW(sim::MemoryRegionMap(geometry, {{"a", 0, 3}, {"b", 4, 8}}),
               std::invalid_argument);
  // Overlap.
  EXPECT_THROW(sim::MemoryRegionMap(geometry, {{"a", 0, 5}, {"b", 4, 8}}),
               std::invalid_argument);
  // Missing tail coverage.
  EXPECT_THROW(sim::MemoryRegionMap(geometry, {{"a", 0, 4}}),
               std::invalid_argument);
  // Duplicate names and empty names.
  EXPECT_THROW(sim::MemoryRegionMap(geometry, {{"a", 0, 4}, {"a", 4, 8}}),
               std::invalid_argument);
  EXPECT_THROW(sim::MemoryRegionMap(geometry, {{"", 0, 8}}),
               std::invalid_argument);
}

TEST(MemoryRegionMap, RowLookupAndNames) {
  const sim::MemoryGeometry geometry{10, 32};
  const sim::MemoryRegionMap map(geometry,
                                 {{"a", 0, 2}, {"b", 2, 7}, {"c", 7, 10}});
  EXPECT_EQ(map.region_of_row(0), 0u);
  EXPECT_EQ(map.region_of_row(1), 0u);
  EXPECT_EQ(map.region_of_row(2), 1u);
  EXPECT_EQ(map.region_of_row(6), 1u);
  EXPECT_EQ(map.region_of_row(7), 2u);
  EXPECT_EQ(map.region_of_row(9), 2u);
  EXPECT_THROW(map.region_of_row(10), std::invalid_argument);
  EXPECT_EQ(map.index_of("b"), 1u);
  EXPECT_THROW(map.index_of("nope"), std::invalid_argument);
}

TEST(MemoryRegionMap, FromFractionsRoundsAndAbsorbs) {
  const sim::MemoryGeometry geometry{10, 32};
  const auto map = sim::MemoryRegionMap::from_fractions(
      geometry, {{"hot", 0.25}, {"cold", 0.75}});
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map.region(0).rows(), 3u);  // round(2.5) up
  EXPECT_EQ(map.region(1).rows(), 7u);
  EXPECT_THROW(
      sim::MemoryRegionMap::from_fractions(geometry, {{"x", 0.5}, {"y", 0.2}}),
      std::invalid_argument);
}

TEST(RegionPolicyTable, ValidatesPoliciesUpFront) {
  const sim::MemoryGeometry geometry{8, 96};
  // One policy per region.
  EXPECT_THROW(RegionPolicyTable(sim::MemoryRegionMap::whole_memory(geometry),
                                 {}),
               std::invalid_argument);
  // weight_bits must divide the row width for the barrel shifter...
  EXPECT_THROW(
      RegionPolicyTable::uniform(geometry, PolicyConfig::barrel_shifter(7)),
      std::invalid_argument);
  // ...but not for policies that never rotate.
  auto odd = PolicyConfig::dnn_life(0.5);
  odd.weight_bits = 7;
  EXPECT_NO_THROW(RegionPolicyTable::uniform(geometry, odd));
}

}  // namespace
}  // namespace dnnlife::core
