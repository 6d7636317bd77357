// Ablation: the bias-balancing register (Sec. IV) — TRBG bias sweep with
// and without balancing, and the effect of the register width M.
#include <iostream>

#include "bench_util.hpp"
#include "core/scenario_suite.hpp"
#include "util/table.hpp"

int main() {
  using namespace dnnlife;
  using core::PolicyConfig;

  core::ScenarioSpec base;
  base.format = quant::WeightFormat::kInt8Asymmetric;
  base.hardware = core::HardwareKind::kBaseline;
  base.baseline.weight_memory_bytes = 64 * 1024;
  base.phases = {{"custom_mnist", 100, {}}};

  benchutil::print_heading("TRBG bias sweep (custom net, int8-asymmetric)");
  util::Table table({"TRBG bias", "balancing", "mean SNM [%]", "max SNM [%]",
                     "% optimal"});
  std::vector<PolicyConfig> sweep;
  for (double bias : {0.5, 0.6, 0.7, 0.8, 0.9})
    for (bool balancing : {false, true})
      sweep.push_back(PolicyConfig::dnn_life(bias, balancing, 4));
  const auto results = core::run_specs(benchutil::policy_specs(base, sweep));
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& report = results[i].report;
    table.add_row({util::Table::num(sweep[i].trbg_bias, 1),
                   sweep[i].bias_balancing ? "M=4" : "off",
                   util::Table::num(report.snm_stats.mean(), 2),
                   util::Table::num(report.snm_stats.max(), 2),
                   util::Table::num(100.0 * report.fraction_optimal, 1)});
  }
  std::cout << table.to_string();
  std::cout << "\nWithout balancing, aging mitigation degrades steadily with\n"
               "TRBG bias; the balancer restores the optimum at every bias\n"
               "(Fig. 9 (11) vs (8) generalised).\n";

  benchutil::print_heading("Balancer register width M sweep (bias = 0.7)");
  util::Table m_table({"M", "phase period [writes]", "mean SNM [%]",
                       "% optimal"});
  std::vector<PolicyConfig> widths;
  for (unsigned m : {1u, 2u, 4u, 8u, 12u})
    widths.push_back(PolicyConfig::dnn_life(0.7, true, m));
  const auto width_results =
      core::run_specs(benchutil::policy_specs(base, widths));
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const unsigned m = widths[i].balancer_bits;
    const auto& report = width_results[i].report;
    m_table.add_row({util::Table::num(std::uint64_t{m}),
                     util::Table::num(std::uint64_t{1} << m),
                     util::Table::num(report.snm_stats.mean(), 2),
                     util::Table::num(100.0 * report.fraction_optimal, 1)});
  }
  std::cout << m_table.to_string();
  std::cout << "\nAny small M balances the long-term bias (NBTI only sees the\n"
               "lifetime average); the paper's M = 4 is comfortably enough.\n";
  return 0;
}
