// Tests for multi-DNN workload schedules and tracker merging.
#include <gtest/gtest.h>

#include <array>
#include <optional>

#include "aging/snm_histogram.hpp"
#include "aging/device_model.hpp"
#include "core/fast_simulator.hpp"
#include "core/workload.hpp"
#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/encoded_rows.hpp"
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

}  // namespace
}  // namespace dnnlife::core
