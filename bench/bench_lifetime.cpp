// Lifetime improvement (the paper's title: "Improving the Lifetime of
// On-Chip Weight Memories"): convert per-cell SNM degradation into
// years-to-failure at a read-stability threshold and report the device
// lifetime (first failing cell) per policy.
#include <iostream>

#include "aging/lifetime.hpp"
#include "bench_util.hpp"
#include "core/scenario_suite.hpp"
#include "util/table.hpp"

int main() {
  using namespace dnnlife;
  using core::PolicyConfig;
  const aging::LifetimeModel model;
  benchutil::print_heading("Device lifetime at SNM-failure threshold 20%");
  std::cout << "model bounds: worst-case (stuck cell) "
            << util::Table::num(model.worst_case_years(), 1)
            << " y, ideal (all balanced) "
            << util::Table::num(model.best_case_years(), 1) << " y\n";

  const std::vector<PolicyConfig> policies = {
      PolicyConfig::none(), PolicyConfig::inversion(),
      PolicyConfig::barrel_shifter(8), PolicyConfig::dnn_life(0.7, true, 4)};
  for (const auto& [name, hardware] :
       {std::pair<std::string, core::HardwareKind>{
            "baseline accelerator + AlexNet (int8-sym)",
            core::HardwareKind::kBaseline},
        {"TPU-like NPU + custom MNIST net (int8-sym)",
         core::HardwareKind::kTpuNpu}}) {
    core::ScenarioSpec base;
    base.format = quant::WeightFormat::kInt8Symmetric;
    base.hardware = hardware;
    base.phases = {{hardware == core::HardwareKind::kBaseline ? "alexnet"
                                                              : "custom_mnist",
                    100,
                    {}}};
    const auto results = core::run_specs(benchutil::policy_specs(base, policies));
    benchutil::print_heading(name);
    util::Table table({"policy", "device lifetime [y]", "median cell [y]",
                       "x worst-case", "% of ideal"});
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const aging::LifetimeReport& report = *results[i].lifetime;
      table.add_row(
          {policies[i].name(),
           util::Table::num(report.device_lifetime_years, 1),
           util::Table::num(report.cell_lifetime.mean(), 1),
           util::Table::num(report.improvement_over_worst_case, 1),
           util::Table::num(100.0 * report.fraction_of_ideal, 1)});
    }
    std::cout << table.to_string();
  }
  std::cout << "\nThe device dies with its worst cell, so lifetime tracks the\n"
               "*maximum* duty-cycle deviation: DNN-Life's worst cell stays\n"
               "near 0.5 and the device approaches the ideal lifetime, while\n"
               "a single schedule-locked cell caps the baselines.\n";
  return 0;
}
