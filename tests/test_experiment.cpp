// End-to-end integration tests of the DNN-Life framework API: scaled-down
// versions of the paper's Fig. 9 / Fig. 11 experiments, checking the
// qualitative orderings the paper reports.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace dnnlife::core {
namespace {

/// Scaled-down baseline experiment (small memory so tests stay fast).
ExperimentConfig small_baseline(quant::WeightFormat format) {
  ExperimentConfig config;
  config.network = "custom_mnist";
  config.format = format;
  config.hardware = HardwareKind::kBaseline;
  config.baseline.weight_memory_bytes = 16 * 1024;
  config.inferences = 100;
  return config;
}

ExperimentConfig npu_config(quant::WeightFormat format) {
  ExperimentConfig config;
  config.network = "custom_mnist";
  config.format = format;
  config.hardware = HardwareKind::kTpuNpu;
  config.inferences = 100;
  return config;
}

TEST(Experiment, RunsEndToEnd) {
  auto config = small_baseline(quant::WeightFormat::kInt8Symmetric);
  config.policy = PolicyConfig::dnn_life(0.5);
  const auto report = run_aging_experiment(config);
  EXPECT_EQ(report.total_cells, 16u * 1024 * 8);
  EXPECT_GT(report.snm_stats.mean(), 10.0);
  EXPECT_LT(report.snm_stats.mean(), 27.0);
}

TEST(Experiment, WorkbenchSharesStreamAcrossPolicies) {
  const auto config = small_baseline(quant::WeightFormat::kInt8Symmetric);
  Workbench bench(config);
  const auto none = bench.evaluate(PolicyConfig::none());
  const auto dnn = bench.evaluate(PolicyConfig::dnn_life(0.5));
  EXPECT_EQ(none.total_cells, dnn.total_cells);
  EXPECT_LE(dnn.snm_stats.mean(), none.snm_stats.mean() + 1e-9);
}

TEST(Experiment, DnnLifeAchievesOptimalAgingOnAllFormats) {
  // Paper Fig. 9 (8)(9)(10): DNN-Life with balancing puts all cells at
  // ~10.8% SNM degradation for every representation format.
  for (auto format : {quant::WeightFormat::kFloat32,
                      quant::WeightFormat::kInt8Symmetric,
                      quant::WeightFormat::kInt8Asymmetric}) {
    Workbench bench(small_baseline(format));
    const auto report = bench.evaluate(PolicyConfig::dnn_life(0.5));
    EXPECT_GT(report.fraction_optimal, 0.99)
        << quant::to_string(format);
    EXPECT_LT(report.snm_stats.mean(), 11.6) << quant::to_string(format);
  }
}

TEST(Experiment, BiasedTrbgNeedsBalancing) {
  // Paper Fig. 9 (11) vs (8): bias 0.7 without balancing degrades the
  // mitigation; the 4-bit balancer restores it.
  Workbench bench(small_baseline(quant::WeightFormat::kInt8Asymmetric));
  const auto without =
      bench.evaluate(PolicyConfig::dnn_life(0.7, /*bias_balancing=*/false));
  const auto with =
      bench.evaluate(PolicyConfig::dnn_life(0.7, /*bias_balancing=*/true, 4));
  EXPECT_GT(without.snm_stats.mean(), with.snm_stats.mean() + 0.5);
  EXPECT_GT(with.fraction_optimal, 0.99);
  // Cells whose data is already ~50/50 stay balanced even under a biased
  // TRBG (duty = 0.3 + 0.4 * base), so only a portion of the memory
  // degrades — "less reduction in SNM degradation", as the paper puts it.
  EXPECT_LT(without.fraction_optimal, with.fraction_optimal - 0.2);
  EXPECT_GT(without.snm_stats.max(), 14.0);
}

TEST(Experiment, NoMitigationIsWorstOnBiasedFormat) {
  Workbench bench(small_baseline(quant::WeightFormat::kInt8Asymmetric));
  const auto none = bench.evaluate(PolicyConfig::none());
  const auto dnn = bench.evaluate(PolicyConfig::dnn_life(0.5));
  // Without mitigation a large share of cells sits far from optimal.
  EXPECT_LT(none.fraction_optimal, 0.7);
  EXPECT_GT(none.snm_stats.max(), 20.0);
  EXPECT_GT(dnn.fraction_optimal, 0.99);
}

TEST(Experiment, BarrelShifterSuboptimalOnAsymmetricFormat) {
  // Paper observation 3: the asymmetric format's average P('1') != 0.5,
  // so rotation cannot balance duty-cycle.
  Workbench bench(small_baseline(quant::WeightFormat::kInt8Asymmetric));
  const auto barrel = bench.evaluate(PolicyConfig::barrel_shifter(8));
  const auto dnn = bench.evaluate(PolicyConfig::dnn_life(0.5));
  EXPECT_GT(barrel.snm_stats.mean(), dnn.snm_stats.mean() + 0.3);
  EXPECT_LT(barrel.fraction_optimal, dnn.fraction_optimal);
}

TEST(Experiment, NpuInversionFailsOnCustomNet) {
  // Paper Fig. 11 (3): on the TPU-like NPU the custom net writes each FIFO
  // slot only once or twice per inference, so schedule-driven inversion
  // leaves most cells at extreme duty-cycles.
  Workbench bench(npu_config(quant::WeightFormat::kInt8Symmetric));
  const auto inversion = bench.evaluate(PolicyConfig::inversion());
  const auto dnn = bench.evaluate(PolicyConfig::dnn_life(0.7, true, 4));
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
  Workbench bench(npu_config(quant::WeightFormat::kInt8Symmetric));
  const auto none = bench.evaluate(PolicyConfig::none());
  const auto inversion = bench.evaluate(PolicyConfig::inversion());
  const auto barrel = bench.evaluate(PolicyConfig::barrel_shifter(8));
  const auto dnn = bench.evaluate(PolicyConfig::dnn_life(0.7, true, 4));
  EXPECT_LT(dnn.snm_stats.mean(), none.snm_stats.mean());
  EXPECT_LT(dnn.snm_stats.mean(), inversion.snm_stats.mean());
  EXPECT_LT(dnn.snm_stats.mean(), barrel.snm_stats.mean());
}

TEST(Experiment, ReferenceSimulatorAgreesEndToEnd) {
  auto config = small_baseline(quant::WeightFormat::kInt8Symmetric);
  config.inferences = 4;
  config.policy = PolicyConfig::inversion();
  config.use_reference_simulator = true;
  const auto reference = run_aging_experiment(config);
  config.use_reference_simulator = false;
  const auto fast = run_aging_experiment(config);
  EXPECT_NEAR(reference.snm_stats.mean(), fast.snm_stats.mean(), 1e-9);
  EXPECT_NEAR(reference.fraction_optimal, fast.fraction_optimal, 1e-12);
}

TEST(Experiment, YearsScaleDegradation) {
  auto config = small_baseline(quant::WeightFormat::kInt8Symmetric);
  config.policy = PolicyConfig::none();
  Workbench bench(config);
  auto short_report = bench.evaluate(PolicyConfig::none());
  // Change horizon via report options.
  auto cfg2 = config;
  cfg2.report.years = 1.0;
  cfg2.report.hist_lo = 0.0;
  Workbench bench2(cfg2);
  const auto one_year = bench2.evaluate(PolicyConfig::none());
  EXPECT_LT(one_year.snm_stats.mean(), short_report.snm_stats.mean());
}

TEST(Experiment, HardwareKindNames) {
  EXPECT_EQ(to_string(HardwareKind::kBaseline), "baseline-accelerator");
  EXPECT_EQ(to_string(HardwareKind::kTpuNpu), "tpu-like-npu");
}

TEST(Experiment, PluggableAgingModels) {
  // The paper states its technique is orthogonal to the device model:
  // every registered model can be evaluated against the same duty-cycle
  // data.
  auto config = small_baseline(quant::WeightFormat::kInt8Symmetric);
  config.inferences = 20;
  const Workbench bench(config);
  for (const std::string& name : aging::AgingModelRegistry::instance().names()) {
    const auto model = aging::make_aging_model(name);
    StreamRunOptions options;
    options.inferences = 20;
    const auto none =
        run_policy_on_stream(bench.stream(), PolicyConfig::none(), *model,
                             config.environment, config.report, options);
    const auto dnn =
        run_policy_on_stream(bench.stream(), PolicyConfig::dnn_life(0.5),
                             *model, config.environment, config.report, options);
    // Duty balancing helps under every device model.
    EXPECT_LE(dnn.snm_stats.mean(), none.snm_stats.mean() + 1e-9) << name;
    EXPECT_LT(dnn.snm_stats.max(), none.snm_stats.max() + 1e-9) << name;
  }
}

TEST(Experiment, NpuFloat32AlsoBalanced) {
  // Fig. 11 uses int8-symmetric; the framework is format-agnostic.
  auto config = npu_config(quant::WeightFormat::kFloat32);
  config.inferences = 20;
  const Workbench bench(config);
  const auto report = bench.evaluate(PolicyConfig::dnn_life(0.5));
  EXPECT_LT(report.snm_stats.mean(), 14.0);
  EXPECT_NEAR(report.duty_stats.mean(), 0.5, 0.02);
}

}  // namespace
}  // namespace dnnlife::core
