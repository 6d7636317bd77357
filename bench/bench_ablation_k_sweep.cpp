// Ablation: how the number of mappings K (memory pressure) and the
// inference count shape the duty-cycle concentration that DNN-Life relies
// on (Sec. III-B insight: larger effective K -> duty closer to 0.5).
// Sweeps the baseline accelerator's weight-memory size, which changes K
// for a fixed network.
#include <iostream>

#include "bench_util.hpp"
#include "core/scenario_suite.hpp"
#include "util/table.hpp"

int main() {
  using namespace dnnlife;
  using core::PolicyConfig;
  benchutil::print_heading(
      "Ablation: memory size (K) sweep — custom MNIST net, int8-symmetric");

  util::Table table({"memory [KB]", "K", "policy", "mean SNM [%]",
                     "max SNM [%]", "% optimal"});
  const std::vector<PolicyConfig> policies = {PolicyConfig::none(),
                                              PolicyConfig::dnn_life(0.5)};
  const std::vector<std::uint64_t> sizes_kb = {4, 16, 64, 256};
  std::vector<core::ScenarioSpec> specs;
  std::vector<std::uint32_t> blocks;
  for (const std::uint64_t kb : sizes_kb) {
    core::ScenarioSpec base;
    base.format = quant::WeightFormat::kInt8Symmetric;
    base.hardware = core::HardwareKind::kBaseline;
    base.baseline.weight_memory_bytes = kb * 1024;
    base.phases = {{"custom_mnist", 100, {}}};
    blocks.push_back(benchutil::make_stream(base)->blocks_per_inference());
    for (core::ScenarioSpec& spec : benchutil::policy_specs(base, policies))
      specs.push_back(std::move(spec));
  }
  const auto results = core::run_specs(specs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& report = results[i].report;
    const std::size_t size = i / policies.size();
    table.add_row({util::Table::num(sizes_kb[size]),
                   util::Table::num(std::uint64_t{blocks[size]}),
                   policies[i % policies.size()].name(),
                   util::Table::num(report.snm_stats.mean(), 2),
                   util::Table::num(report.snm_stats.max(), 2),
                   util::Table::num(100.0 * report.fraction_optimal, 1)});
  }
  std::cout << table.to_string();

  benchutil::print_heading("Inference-count sweep (effective K growth)");
  util::Table inf_table({"inferences", "mean SNM [%]", "max SNM [%]",
                         "% optimal"});
  std::vector<core::ScenarioSpec> counts;
  for (unsigned inferences : {10u, 25u, 50u, 100u, 400u}) {
    core::ScenarioSpec spec;
    spec.format = quant::WeightFormat::kInt8Symmetric;
    spec.hardware = core::HardwareKind::kTpuNpu;
    spec.phases = {{"custom_mnist", inferences, {}}};
    spec.regions = {{"memory", 1.0, PolicyConfig::dnn_life(0.5)}};
    counts.push_back(std::move(spec));
  }
  const auto count_results = core::run_specs(counts);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto& report = count_results[i].report;
    inf_table.add_row(
        {util::Table::num(std::uint64_t{counts[i].phases.front().inferences}),
         util::Table::num(report.snm_stats.mean(), 2),
         util::Table::num(report.snm_stats.max(), 2),
         util::Table::num(100.0 * report.fraction_optimal, 1)});
  }
  std::cout << inf_table.to_string();
  std::cout << "\nDNN-Life's randomness accumulates across inferences: its\n"
               "effective K is (writes/slot) x inferences, so even the NPU's\n"
               "1-2 writes per slot converge to the optimum over the device\n"
               "lifetime; deterministic schemes cannot grow K this way.\n";
  return 0;
}
