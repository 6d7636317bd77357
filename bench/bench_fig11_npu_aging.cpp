// Fig. 11: SNM degradation of the weight-FIFO cells of a TPU-like NPU
// (Table I: 256x256 PEs, 4-tile circular weight FIFO = 256 KB) for the
// AlexNet, VGG-16 and custom MNIST networks, all quantized with 8-bit
// symmetric range-linear quantization. Policies: no mitigation,
// inversion, barrel shifter, and DNN-Life with bias balancing (bias 0.7).
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/scenario_suite.hpp"
#include "util/csv.hpp"

int main() {
  using namespace dnnlife;
  using core::PolicyConfig;
  benchutil::print_heading(
      "Fig. 11: TPU-like NPU, int8-symmetric weights, 7 years");

  const std::vector<std::pair<std::string, PolicyConfig>> policies = {
      {"without aging mitigation", PolicyConfig::none()},
      {"inversion-based", PolicyConfig::inversion()},
      {"barrel-shifter-based", PolicyConfig::barrel_shifter(8)},
      {"DNN-Life with bias balancing (bias = 0.7)",
       PolicyConfig::dnn_life(0.7, /*bias_balancing=*/true, 4)},
  };
  std::vector<PolicyConfig> configs;
  for (const auto& [label, policy] : policies) configs.push_back(policy);

  util::CsvWriter csv("fig11_summary.csv",
                      {"network", "policy", "mean_snm_pct", "max_snm_pct",
                       "fraction_optimal"});
  for (const std::string name : {"alexnet", "vgg16", "custom_mnist"}) {
    core::ScenarioSpec base;
    base.format = quant::WeightFormat::kInt8Symmetric;
    base.hardware = core::HardwareKind::kTpuNpu;
    base.phases = {{name, 100, {}}};
    std::cout << "\n==================== " << name << " ====================\n";
    {
      const auto stream = benchutil::make_stream(base);
      std::cout << "weight FIFO: " << stream->geometry().rows
                << " rows (4 tiles), tiles/inference = "
                << stream->blocks_per_inference()
                << ", writes/slot-row/inference ~ "
                << stream->blocks_per_inference() / 4 << "\n";
    }
    const auto results = core::run_specs(benchutil::policy_specs(base, configs));
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const auto& [label, policy] = policies[i];
      const auto& report = results[i].report;
      benchutil::print_report(label, report);
      csv.add_row({name, policy.name(),
                   util::Table::num(report.snm_stats.mean(), 4),
                   util::Table::num(report.snm_stats.max(), 4),
                   util::Table::num(report.fraction_optimal, 6)});
    }
  }
  std::cout << "\n(summary also written to fig11_summary.csv)\n";
  std::cout
      << "\nPaper shape: inversion looks near-optimal for AlexNet/VGG-16\n"
         "(hundreds of mixed-data writes per slot) but fails badly on the\n"
         "custom network, whose 1-2 schedule-locked writes per slot leave\n"
         "most cells at extreme duty-cycles (Fig. 11 (3)); the barrel\n"
         "shifter is sub-optimal; DNN-Life remains optimal on all three\n"
         "networks (Fig. 11 (7)-(9)).\n";
  return 0;
}
