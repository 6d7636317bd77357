// End-to-end integration tests of the DNN-Life framework API: scaled-down
// versions of the paper's Fig. 9 / Fig. 11 experiments, run as one-phase
// scenarios, checking the qualitative orderings the paper reports.
#include <gtest/gtest.h>

#include "core/scenario_suite.hpp"

namespace dnnlife::core {
namespace {

ScenarioSpec one_phase(quant::WeightFormat format, HardwareKind hardware) {
  ScenarioSpec spec;
  spec.format = format;
  spec.hardware = hardware;
  spec.phases = {{"custom_mnist", 100, {}}};
  return spec;
}

/// Scaled-down baseline experiment (small memory so tests stay fast).
ScenarioSpec small_baseline(quant::WeightFormat format) {
  ScenarioSpec spec = one_phase(format, HardwareKind::kBaseline);
  spec.baseline.weight_memory_bytes = 16 * 1024;
  return spec;
}

ScenarioSpec npu_config(quant::WeightFormat format) {
  return one_phase(format, HardwareKind::kTpuNpu);
}

/// The spec's aging report with `policy` over the whole memory.
aging::AgingReport evaluate(ScenarioSpec spec, const PolicyConfig& policy) {
  spec.regions = {{"memory", 1.0, policy}};
  return run_scenario(spec).report;
}

TEST(Experiment, RunsEndToEnd) {
  const auto report = evaluate(
      small_baseline(quant::WeightFormat::kInt8Symmetric),
      PolicyConfig::dnn_life(0.5));
  EXPECT_EQ(report.total_cells, 16u * 1024 * 8);
  EXPECT_GT(report.snm_stats.mean(), 10.0);
  EXPECT_LT(report.snm_stats.mean(), 27.0);
}

TEST(Experiment, SuiteSharesStreamAcrossPolicies) {
  std::vector<ScenarioSpec> specs(
      2, small_baseline(quant::WeightFormat::kInt8Symmetric));
  specs[0].regions = {{"memory", 1.0, PolicyConfig::none()}};
  specs[1].regions = {{"memory", 1.0, PolicyConfig::dnn_life(0.5)}};
  const std::vector<ScenarioResult> results = run_specs(specs);
  ASSERT_EQ(results.size(), 2u);
  const auto& none = results[0].report;
  const auto& dnn = results[1].report;
  EXPECT_EQ(none.total_cells, dnn.total_cells);
  EXPECT_LE(dnn.snm_stats.mean(), none.snm_stats.mean() + 1e-9);
}

TEST(Experiment, DnnLifeAchievesOptimalAgingOnAllFormats) {
  // Paper Fig. 9 (8)(9)(10): DNN-Life with balancing puts all cells at
  // ~10.8% SNM degradation for every representation format.
  for (auto format : {quant::WeightFormat::kFloat32,
                      quant::WeightFormat::kInt8Symmetric,
                      quant::WeightFormat::kInt8Asymmetric}) {
    const auto report =
        evaluate(small_baseline(format), PolicyConfig::dnn_life(0.5));
    EXPECT_GT(report.fraction_optimal, 0.99)
        << quant::to_string(format);
    EXPECT_LT(report.snm_stats.mean(), 11.6) << quant::to_string(format);
  }
}

TEST(Experiment, BiasedTrbgNeedsBalancing) {
  // Paper Fig. 9 (11) vs (8): bias 0.7 without balancing degrades the
  // mitigation; the 4-bit balancer restores it.
  const auto spec = small_baseline(quant::WeightFormat::kInt8Asymmetric);
  const auto without =
      evaluate(spec, PolicyConfig::dnn_life(0.7, /*bias_balancing=*/false));
  const auto with =
      evaluate(spec, PolicyConfig::dnn_life(0.7, /*bias_balancing=*/true, 4));
  EXPECT_GT(without.snm_stats.mean(), with.snm_stats.mean() + 0.5);
  EXPECT_GT(with.fraction_optimal, 0.99);
  // Cells whose data is already ~50/50 stay balanced even under a biased
  // TRBG (duty = 0.3 + 0.4 * base), so only a portion of the memory
  // degrades — "less reduction in SNM degradation", as the paper puts it.
  EXPECT_LT(without.fraction_optimal, with.fraction_optimal - 0.2);
  EXPECT_GT(without.snm_stats.max(), 14.0);
}

TEST(Experiment, NoMitigationIsWorstOnBiasedFormat) {
  const auto spec = small_baseline(quant::WeightFormat::kInt8Asymmetric);
  const auto none = evaluate(spec, PolicyConfig::none());
  const auto dnn = evaluate(spec, PolicyConfig::dnn_life(0.5));
  // Without mitigation a large share of cells sits far from optimal.
  EXPECT_LT(none.fraction_optimal, 0.7);
  EXPECT_GT(none.snm_stats.max(), 20.0);
  EXPECT_GT(dnn.fraction_optimal, 0.99);
}

TEST(Experiment, BarrelShifterSuboptimalOnAsymmetricFormat) {
  // Paper observation 3: the asymmetric format's average P('1') != 0.5,
  // so rotation cannot balance duty-cycle.
  const auto spec = small_baseline(quant::WeightFormat::kInt8Asymmetric);
  const auto barrel = evaluate(spec, PolicyConfig::barrel_shifter(8));
  const auto dnn = evaluate(spec, PolicyConfig::dnn_life(0.5));
  EXPECT_GT(barrel.snm_stats.mean(), dnn.snm_stats.mean() + 0.3);
  EXPECT_LT(barrel.fraction_optimal, dnn.fraction_optimal);
}

TEST(Experiment, NpuInversionFailsOnCustomNet) {
  // Paper Fig. 11 (3): on the TPU-like NPU the custom net writes each FIFO
  // slot only once or twice per inference, so schedule-driven inversion
  // leaves most cells at extreme duty-cycles.
  const auto spec = npu_config(quant::WeightFormat::kInt8Symmetric);
  const auto inversion = evaluate(spec, PolicyConfig::inversion());
  const auto dnn = evaluate(spec, PolicyConfig::dnn_life(0.7, true, 4));
  EXPECT_LT(inversion.fraction_optimal, 0.5);
  EXPECT_GT(inversion.snm_stats.max(), 25.0);
  // Paper Fig. 11 (7)-(9): DNN-Life brings every cell near the optimum —
  // each FIFO slot gets only 1-2 writes per inference here, so with 100
  // inferences the duty-cycle spread is ~0.05 and the SNM mass sits in the
  // lowest degradation levels, with no cells anywhere near the maximum.
  EXPECT_LT(dnn.snm_stats.mean(), 12.5);
  EXPECT_LT(dnn.snm_stats.max(), 17.0);
  EXPECT_GT(inversion.snm_stats.mean(), dnn.snm_stats.mean() + 4.0);
}

TEST(Experiment, NpuDnnLifeBeatsAllBaselines) {
  const auto spec = npu_config(quant::WeightFormat::kInt8Symmetric);
  const auto none = evaluate(spec, PolicyConfig::none());
  const auto inversion = evaluate(spec, PolicyConfig::inversion());
  const auto barrel = evaluate(spec, PolicyConfig::barrel_shifter(8));
  const auto dnn = evaluate(spec, PolicyConfig::dnn_life(0.7, true, 4));
  EXPECT_LT(dnn.snm_stats.mean(), none.snm_stats.mean());
  EXPECT_LT(dnn.snm_stats.mean(), inversion.snm_stats.mean());
  EXPECT_LT(dnn.snm_stats.mean(), barrel.snm_stats.mean());
}

TEST(Experiment, ReferenceSimulatorAgreesEndToEnd) {
  auto config = small_baseline(quant::WeightFormat::kInt8Symmetric);
  config.phases.front().inferences = 4;
  config.use_reference_simulator = true;
  const auto reference = evaluate(config, PolicyConfig::inversion());
  config.use_reference_simulator = false;
  const auto fast = evaluate(config, PolicyConfig::inversion());
  EXPECT_NEAR(reference.snm_stats.mean(), fast.snm_stats.mean(), 1e-9);
  EXPECT_NEAR(reference.fraction_optimal, fast.fraction_optimal, 1e-12);
}

TEST(Experiment, YearsScaleDegradation) {
  const auto config = small_baseline(quant::WeightFormat::kInt8Symmetric);
  const auto short_report = evaluate(config, PolicyConfig::none());
  // Change horizon via report options.
  auto cfg2 = config;
  cfg2.report.years = 1.0;
  cfg2.report.hist_lo = 0.0;
  const auto one_year = evaluate(cfg2, PolicyConfig::none());
  EXPECT_LT(one_year.snm_stats.mean(), short_report.snm_stats.mean());
}

TEST(Experiment, PluggableAgingModels) {
  // The paper states its technique is orthogonal to the device model:
  // every registered model can be evaluated against the same duty-cycle
  // data.
  auto config = small_baseline(quant::WeightFormat::kInt8Symmetric);
  config.phases.front().inferences = 20;
  for (const std::string& name : aging::AgingModelRegistry::instance().names()) {
    config.aging_model = name;
    const auto none = evaluate(config, PolicyConfig::none());
    const auto dnn = evaluate(config, PolicyConfig::dnn_life(0.5));
    // Duty balancing helps under every device model.
    EXPECT_LE(dnn.snm_stats.mean(), none.snm_stats.mean() + 1e-9) << name;
    EXPECT_LT(dnn.snm_stats.max(), none.snm_stats.max() + 1e-9) << name;
  }
}

TEST(Experiment, NpuFloat32AlsoBalanced) {
  // Fig. 11 uses int8-symmetric; the framework is format-agnostic.
  auto config = npu_config(quant::WeightFormat::kFloat32);
  config.phases.front().inferences = 20;
  const auto report = evaluate(config, PolicyConfig::dnn_life(0.5));
  EXPECT_LT(report.snm_stats.mean(), 14.0);
  EXPECT_NEAR(report.duty_stats.mean(), 0.5, 0.02);
}

}  // namespace
}  // namespace dnnlife::core
