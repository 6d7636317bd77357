// Tests for multi-DNN workload schedules and tracker merging.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "aging/snm_histogram.hpp"
#include "aging/device_model.hpp"
#include "core/fast_simulator.hpp"
#include "core/scenario.hpp"
#include "core/sim_cache.hpp"
#include "core/workload.hpp"
#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/encoded_rows.hpp"
#include "sim/region_map.hpp"
#include "sim/tpu_npu.hpp"

namespace dnnlife::core {
namespace {

TEST(TrackerMerge, AddsAccumulators) {
  aging::DutyCycleTracker a(2);
  aging::DutyCycleTracker b(2);
  a.add_total_time(0, 4);
  a.add_ones_time(0, 4);
  b.add_total_time(0, 4);
  // cell 1 used only in b.
  b.add_total_time(1, 2);
  b.add_ones_time(1, 1);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.duty(0), 0.5);
  EXPECT_DOUBLE_EQ(a.duty(1), 0.5);
  EXPECT_EQ(a.unused_cell_count(), 0u);
}

TEST(TrackerMerge, RejectsGeometryMismatch) {
  aging::DutyCycleTracker a(2);
  aging::DutyCycleTracker b(3);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

class WorkloadFixture : public ::testing::Test {
 protected:
  WorkloadFixture()
      : custom_(dnn::make_custom_mnist()),
        custom_streamer_(custom_),
        custom_codec_(custom_streamer_, quant::WeightFormat::kInt8Symmetric),
        custom_stream_(custom_codec_, sim::TpuNpuConfig{}) {}

  /// The AlexNet stream, built on first use (only the mixed-workload
  /// tests need it) over every core; the payloads are bit-identical for
  /// any thread budget, so only the build's wall time changes.
  const sim::NpuWeightStream& alexnet_stream() {
    if (!alexnet_stream_) {
      const dnn::Network alexnet = dnn::make_alexnet();
      const dnn::WeightStreamer streamer(alexnet);
      const quant::WeightWordCodec codec(streamer,
                                         quant::WeightFormat::kInt8Symmetric);
      alexnet_stream_.emplace(sim::EncodedRows::build(
          codec, sim::npu_dataflow(sim::TpuNpuConfig{}), 0));
    }
    return *alexnet_stream_;
  }

  dnn::Network custom_;
  dnn::WeightStreamer custom_streamer_;
  quant::WeightWordCodec custom_codec_;
  sim::NpuWeightStream custom_stream_;
  std::optional<sim::NpuWeightStream> alexnet_stream_;
};

TEST_F(WorkloadFixture, SinglePhaseMatchesDirectSimulation) {
  const std::array<WorkloadPhase, 1> phases = {
      WorkloadPhase{&custom_stream_, 10}};
  const auto scheduled =
      simulate_workload(phases, PolicyConfig::inversion());
  const auto direct =
      simulate_fast(custom_stream_, PolicyConfig::inversion(), {10});
  EXPECT_EQ(scheduled.ones_time(), direct.ones_time());
}

TEST_F(WorkloadFixture, MixedWorkloadDilutesThePathology) {
  // Running the custom net alone under inversion leaves cells at extreme
  // duty-cycles (Fig. 11 (3)); interleaving AlexNet (whose mixed data
  // balances the same cells) pulls the lifetime duty-cycle towards 0.5.
  const std::array<WorkloadPhase, 1> custom_only = {
      WorkloadPhase{&custom_stream_, 50}};
  const std::array<WorkloadPhase, 2> mixed = {
      WorkloadPhase{&custom_stream_, 50}, WorkloadPhase{&alexnet_stream(), 50}};
  const auto alone = simulate_workload(custom_only, PolicyConfig::inversion());
  const auto combined = simulate_workload(mixed, PolicyConfig::inversion());
  const aging::CalibratedNbtiDeviceModel model;
  const aging::EnvironmentSegmentView alone_segment{&alone, {}};
  const aging::EnvironmentSegmentView mixed_segment{&combined, {}};
  const auto alone_report = make_aging_report({&alone_segment, 1}, model);
  const auto mixed_report = make_aging_report({&mixed_segment, 1}, model);
  EXPECT_LT(mixed_report.snm_stats.mean(), alone_report.snm_stats.mean() - 3.0);
}

TEST_F(WorkloadFixture, DnnLifeOptimalOnMixedWorkloads) {
  const std::array<WorkloadPhase, 2> mixed = {
      WorkloadPhase{&custom_stream_, 50}, WorkloadPhase{&alexnet_stream(), 50}};
  const auto tracker =
      simulate_workload(mixed, PolicyConfig::dnn_life(0.7, true, 4));
  const aging::CalibratedNbtiDeviceModel model;
  const aging::EnvironmentSegmentView segment{&tracker, {}};
  const auto report = make_aging_report({&segment, 1}, model);
  EXPECT_LT(report.snm_stats.mean(), 11.5);
  EXPECT_GT(report.fraction_optimal, 0.95);
}

TEST_F(WorkloadFixture, ZeroInferencePhaseContributesNothing) {
  // A provisioned-but-dormant model must not change the lifetime result —
  // and must not trip the simulators' inferences >= 1 contract.
  const std::array<WorkloadPhase, 3> with_dormant = {
      WorkloadPhase{&custom_stream_, 10}, WorkloadPhase{&alexnet_stream(), 0},
      WorkloadPhase{&custom_stream_, 0}};
  const std::array<WorkloadPhase, 1> active_only = {
      WorkloadPhase{&custom_stream_, 10}};
  const auto policy = PolicyConfig::inversion();
  const auto dormant = simulate_workload(with_dormant, policy);
  const auto active = simulate_workload(active_only, policy);
  EXPECT_EQ(dormant.ones_time(), active.ones_time());
  EXPECT_EQ(dormant.total_time(), active.total_time());
}

TEST_F(WorkloadFixture, AllPhasesDormantLeavesMemoryUntouched) {
  const std::array<WorkloadPhase, 2> phases = {
      WorkloadPhase{&custom_stream_, 0}, WorkloadPhase{&alexnet_stream(), 0}};
  const auto tracker = simulate_workload(phases, PolicyConfig::none());
  EXPECT_EQ(tracker.unused_cell_count(), tracker.cell_count());
}

TEST_F(WorkloadFixture, RegionTableAppliesAcrossPhases) {
  const sim::MemoryGeometry geometry = custom_stream_.geometry();
  const RegionPolicyTable table(
      sim::MemoryRegionMap(geometry,
                           {sim::MemoryRegion{"hot", 0, geometry.rows / 2},
                            sim::MemoryRegion{"cold", geometry.rows / 2,
                                              geometry.rows}}),
      {PolicyConfig::dnn_life(0.5), PolicyConfig::none()});
  const std::array<WorkloadPhase, 2> phases = {
      WorkloadPhase{&custom_stream_, 10}, WorkloadPhase{&alexnet_stream(), 10}};
  const auto tracker = simulate_workload(phases, table);
  ASSERT_EQ(tracker.regions().size(), 2u);
  EXPECT_EQ(tracker.regions()[0].name, "hot");
  const aging::CalibratedNbtiDeviceModel model;
  const aging::EnvironmentSegmentView segment{&tracker, {}};
  const auto report = make_aging_report({&segment, 1}, model);
  ASSERT_EQ(report.regions.size(), 2u);
  EXPECT_EQ(report.regions[0].total_cells + report.regions[1].total_cells,
            report.total_cells);
}

TEST_F(WorkloadFixture, ReferencePathMatchesFastForDeterministicPolicies) {
  sim::TpuNpuConfig small;
  small.array_dim = 32;
  const sim::NpuWeightStream stream(custom_codec_, small);
  const std::array<WorkloadPhase, 2> phases = {
      WorkloadPhase{&stream, 3}, WorkloadPhase{&stream, 2}};
  const auto table =
      RegionPolicyTable::uniform(stream.geometry(), PolicyConfig::inversion());
  WorkloadOptions reference_options;
  reference_options.use_reference_simulator = true;
  const auto reference = simulate_workload(phases, table, reference_options);
  const auto fast = simulate_workload(phases, table, {});
  EXPECT_EQ(reference.ones_time(), fast.ones_time());
  EXPECT_EQ(reference.total_time(), fast.total_time());
}

TEST_F(WorkloadFixture, RejectsEmptyAndMismatched) {
  EXPECT_THROW(simulate_workload({}, PolicyConfig::none()),
               std::invalid_argument);
  sim::TpuNpuConfig small;
  small.fifo_tiles = 2;
  sim::NpuWeightStream other(custom_codec_, small);
  const std::array<WorkloadPhase, 2> phases = {
      WorkloadPhase{&custom_stream_, 10}, WorkloadPhase{&other, 10}};
  EXPECT_THROW(simulate_workload(phases, PolicyConfig::none()),
               std::invalid_argument);
}

// ---- the scenario path: one tracker per segment, nothing merged --------------

/// Two regions, three phases: hot, dormant, then nominal (two segments).
ScenarioSpec hot_dormant_nominal_spec(unsigned threads) {
  ScenarioSpec spec;
  spec.baseline.weight_memory_bytes = 16 * 1024;  // several blocks
  aging::EnvironmentSpec hot;
  hot.temperature_c = 85.0;
  spec.phases = {ScenarioPhaseSpec{"custom_mnist", 6, hot},
                 ScenarioPhaseSpec{"custom_mnist", 0, {}},
                 ScenarioPhaseSpec{"custom_mnist", 4, {}}};
  spec.regions = {ScenarioRegionSpec{"hot", 0.25, PolicyConfig::dnn_life(0.7)},
                  ScenarioRegionSpec{"cold", 0.75, PolicyConfig::inversion()}};
  spec.threads = threads;
  return spec;
}

/// The duty state run_scenario commits for `spec`, read back from a fresh
/// SimCache.
SimCache::StatePtr committed_state(const ScenarioSpec& spec) {
  RunScenarioOptions options;
  options.sim_cache = std::make_shared<SimCache>(std::size_t{1} << 26);
  run_scenario(spec, options);
  return options.sim_cache->lookup(simulation_fingerprint(spec));
}

TEST(WorkloadScenarioPath, CommitsThePhasedSegmentsTrackerByTracker) {
  // The same workload composed by hand on the phased entry point.
  const ScenarioSpec spec = hot_dormant_nominal_spec(1);
  const dnn::Network network = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(network);
  const quant::WeightWordCodec codec(streamer, spec.format);
  const sim::BaselineWeightStream stream(codec, spec.baseline);
  std::vector<std::pair<std::string, double>> fractions;
  std::vector<PolicyConfig> policies;
  for (const ScenarioRegionSpec& region : spec.regions) {
    fractions.emplace_back(region.name, region.row_fraction);
    policies.push_back(region.policy);
    policies.back().weight_bits = codec.bits();
  }
  const RegionPolicyTable table(
      sim::MemoryRegionMap::from_fractions(stream.geometry(), fractions),
      policies);
  std::vector<WorkloadPhase> phases;
  for (const ScenarioPhaseSpec& phase : spec.phases)
    phases.emplace_back(&stream, phase.inferences, phase.environment);
  const PhasedWorkloadResult phased = simulate_workload_phased(phases, table);
  ASSERT_EQ(phased.segments.size(), 2u);  // hot | nominal

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const SimCache::StatePtr state =
        committed_state(hot_dormant_nominal_spec(threads));
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->regions, table.cell_regions());
    ASSERT_EQ(state->segment_trackers.size(), phased.segments.size());
    for (std::size_t i = 0; i < phased.segments.size(); ++i) {
      const aging::DutyCycleTracker& expected = phased.segments[i].tracker;
      EXPECT_EQ(state->segment_trackers[i].ones_time(), expected.ones_time());
      EXPECT_EQ(state->segment_trackers[i].total_time(), expected.total_time());
      EXPECT_EQ(state->segment_trackers[i].regions(), expected.regions());
    }
  }
}

TEST(WorkloadScenarioPath, AllDormantSpecReportsEveryCellUnused) {
  ScenarioSpec spec = hot_dormant_nominal_spec(4);
  for (ScenarioPhaseSpec& phase : spec.phases) phase.inferences = 0;
  const SimCache::StatePtr state = committed_state(spec);
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->segment_trackers.empty());
  ASSERT_EQ(state->regions.size(), 2u);
  const ScenarioResult result = run_scenario(spec);
  EXPECT_GT(result.report.total_cells, 0u);
  EXPECT_EQ(result.report.unused_cells, result.report.total_cells);
  EXPECT_EQ(result.report.regions.size(), 2u);
  EXPECT_FALSE(result.lifetime.has_value());
}

TEST(WorkloadScenarioPath, RejectsSummedResidencyOverflowBeforeSimulating) {
  // custom_mnist fills the default baseline weight memory in one block, so
  // each phase of 2^30 inferences holds 2^30 slots: every phase alone
  // passes simulate_fast's per-phase bound, and four of them wrap the
  // uint32 accumulators.
  ScenarioSpec spec;
  spec.phases.assign(4, ScenarioPhaseSpec{"custom_mnist", 1u << 30, {}});
  {
    const dnn::Network network = dnn::make_custom_mnist();
    const dnn::WeightStreamer streamer(network);
    const quant::WeightWordCodec codec(streamer, spec.format);
    ASSERT_EQ(sim::BaselineWeightStream(codec, spec.baseline)
                  .blocks_per_inference(),
              1u);
  }
  try {
    run_scenario(spec);
    FAIL() << "four phases of 2^30 slots must overflow";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what())
                  .find("duration x inferences overflows the duty accumulators"),
              std::string::npos)
        << error.what();
  }
  spec.phases.pop_back();  // 3 x 2^30 < 2^32
  const ScenarioResult result = run_scenario(spec);
  EXPECT_LT(result.report.unused_cells, result.report.total_cells);
}

TEST(WorkloadFirstTouch, UnwrittenRowsReadZeroOnDirtiedMemory) {
  // Every third row is never written. The commit shards zero their own
  // rows, so those rows must read 0 even when the allocator hands the
  // tracker memory that held non-zero accumulators (kept under the mmap
  // threshold so it is reused rather than fresh from the kernel).
  const sim::MemoryGeometry geometry{32, 256};
  sim::VectorWriteStream stream(geometry, 2);
  for (std::uint32_t block = 0; block < 2; ++block)
    for (std::uint32_t row = 0; row < geometry.rows; ++row)
      if (row % 3 != 0)
        stream.add_write(row, block,
                         std::vector<std::uint64_t>(
                             4, 0x0123456789abcdefULL * (row + 2 * block + 1)));
  for (unsigned threads = 1; threads <= 8; ++threads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    {
      aging::DutyCycleTracker dirt(geometry.cells());
      std::fill(dirt.ones_time().begin(), dirt.ones_time().end(), 0xa5a5a5a5u);
      std::fill(dirt.total_time().begin(), dirt.total_time().end(), 0x5a5a5a5au);
      ASSERT_EQ(dirt.unused_cell_count(), 0u);
    }
    const aging::DutyCycleTracker tracker =
        simulate_fast(stream, PolicyConfig::inversion(), {5, threads});
    std::size_t dirty_cells = 0, used_cells = 0;
    for (std::uint32_t row = 0; row < geometry.rows; ++row) {
      for (std::uint32_t bit = 0; bit < geometry.row_bits; ++bit) {
        const std::uint64_t cell = geometry.cell_index(row, bit);
        if (row % 3 != 0) {
          used_cells += tracker.total_time()[cell] == 10;  // 2 slots x 5
        } else {
          dirty_cells += tracker.ones_time()[cell] != 0 ||
                         tracker.total_time()[cell] != 0;
        }
      }
    }
    EXPECT_EQ(dirty_cells, 0u);
    EXPECT_EQ(used_cells, geometry.cells() - 11 * geometry.row_bits);
  }
}

}  // namespace
}  // namespace dnnlife::core
