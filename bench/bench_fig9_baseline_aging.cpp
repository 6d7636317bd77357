// Fig. 9: SNM degradation of the 6T-SRAM weight memory cells of the
// baseline DNN accelerator (Table I: 512 KB weight memory, 8 PEs x 8
// multipliers) running AlexNet inference only, after 7 years.
//
// Grid: 3 weight formats x 6 mitigation policies:
//   (1) no mitigation, (2) inversion-based, (3) barrel-shifter-based,
//   (4) DNN-Life bias=0.5, (5) DNN-Life bias=0.7 without balancing,
//   (6) DNN-Life bias=0.7 with 4-bit bias balancing.
// Duty-cycles observed over 100 inferences, as in the paper.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/scenario_suite.hpp"
#include "util/csv.hpp"

int main() {
  using namespace dnnlife;
  using core::PolicyConfig;
  benchutil::print_heading(
      "Fig. 9: baseline accelerator + AlexNet, SNM degradation after 7 years");

  const std::vector<std::pair<std::string, PolicyConfig>> policies = {
      {"(1) without aging mitigation", PolicyConfig::none()},
      {"(2) inversion-based", PolicyConfig::inversion()},
      {"(3) barrel-shifter-based", PolicyConfig::barrel_shifter(8)},
      {"(4) DNN-Life, TRBG bias = 0.5", PolicyConfig::dnn_life(0.5)},
      {"(5) DNN-Life, bias = 0.7, no bias balancing",
       PolicyConfig::dnn_life(0.7, /*bias_balancing=*/false)},
      {"(6) DNN-Life, bias = 0.7, 4-bit bias balancing",
       PolicyConfig::dnn_life(0.7, /*bias_balancing=*/true, 4)},
  };
  std::vector<PolicyConfig> configs;
  for (const auto& [label, policy] : policies) configs.push_back(policy);

  util::CsvWriter csv("fig9_summary.csv",
                      {"format", "policy", "mean_snm_pct", "max_snm_pct",
                       "fraction_optimal"});
  for (auto format : {quant::WeightFormat::kFloat32,
                      quant::WeightFormat::kInt8Symmetric,
                      quant::WeightFormat::kInt8Asymmetric}) {
    core::ScenarioSpec base;
    base.format = format;
    base.hardware = core::HardwareKind::kBaseline;
    base.phases = {{"alexnet", 100, {}}};
    std::cout << "\n==================== " << quant::to_string(format)
              << " ====================\n";
    {
      const auto stream = benchutil::make_stream(base);
      std::cout << "memory: " << stream->geometry().rows << " rows x "
                << stream->geometry().row_bits << " bits, K = "
                << stream->blocks_per_inference() << " mappings/inference\n";
    }
    // The six policies run as one suite: the payloads build once and the
    // points run concurrently (bit-identical to one run_scenario each).
    const auto results = core::run_specs(benchutil::policy_specs(base, configs));
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const auto& report = results[i].report;
      benchutil::print_report(policies[i].first, report);
      csv.add_row({quant::to_string(format), policies[i].second.name(),
                   util::Table::num(report.snm_stats.mean(), 4),
                   util::Table::num(report.snm_stats.max(), 4),
                   util::Table::num(report.fraction_optimal, 6)});
    }
  }
  std::cout << "\n(summary also written to fig9_summary.csv)\n";
  std::cout
      << "\nPaper shape: inversion and barrel-shifter reduce degradation but\n"
         "are not minimal in all formats (barrel-shifter fails on the biased\n"
         "asymmetric format); a biased TRBG without balancing is clearly\n"
         "sub-optimal; DNN-Life with bias balancing puts (essentially) all\n"
         "cells at the minimum ~10.8% level in every format.\n";
  return 0;
}
