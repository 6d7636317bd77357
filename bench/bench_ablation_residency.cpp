// Ablation: equal block residency (the paper's assumption (b)) vs
// compute-proportional residency (conv blocks stay resident for
// out_h*out_w MACs per weight, FC blocks for one). Checks whether the
// evaluation's conclusions survive the relaxation of Sec. III-C.
#include <iostream>

#include "bench_util.hpp"
#include "core/scenario_suite.hpp"
#include "util/table.hpp"

int main() {
  using namespace dnnlife;
  using core::PolicyConfig;
  benchutil::print_heading(
      "Ablation: uniform vs compute-weighted block residency "
      "(baseline accelerator, AlexNet, int8-symmetric)");

  util::Table table({"residency", "policy", "mean SNM [%]", "max SNM [%]",
                     "% optimal"});
  const std::vector<PolicyConfig> policies = {
      PolicyConfig::none(), PolicyConfig::inversion(),
      PolicyConfig::dnn_life(0.7, true, 4)};
  // Residency weighting leaves the payloads alone, so all six points
  // share one build.
  std::vector<core::ScenarioSpec> specs;
  for (bool weighted : {false, true}) {
    core::ScenarioSpec base;
    base.format = quant::WeightFormat::kInt8Symmetric;
    base.hardware = core::HardwareKind::kBaseline;
    base.baseline.compute_weighted_residency = weighted;
    base.phases = {{"alexnet", 100, {}}};
    for (core::ScenarioSpec& spec : benchutil::policy_specs(base, policies))
      specs.push_back(std::move(spec));
  }
  const auto results = core::run_specs(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& report = results[i].report;
    table.add_row({specs[i].baseline.compute_weighted_residency
                       ? "compute-weighted"
                       : "uniform",
                   specs[i].regions.front().policy.name(),
                   util::Table::num(report.snm_stats.mean(), 2),
                   util::Table::num(report.snm_stats.max(), 2),
                   util::Table::num(100.0 * report.fraction_optimal, 1)});
  }
  std::cout << table.to_string();
  std::cout
      << "\nCompute-weighted residency makes the conv blocks dominate the\n"
         "lifetime (each conv weight is resident while it serves thousands\n"
         "of output positions), which shifts the unmitigated distribution;\n"
         "DNN-Life stays at the optimum because its enable bit is drawn per\n"
         "write regardless of how long the block then stays resident.\n";
  return 0;
}
