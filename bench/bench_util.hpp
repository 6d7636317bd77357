// Shared output helpers for the benchmark harnesses.
#pragma once

#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aging/snm_histogram.hpp"
#include "core/scenario.hpp"
#include "dnn/model_zoo.hpp"
#include "util/table.hpp"

namespace dnnlife::benchutil {

inline void print_heading(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Print one evaluation in the shape of a Fig. 9 / Fig. 11 bar graph:
/// the per-bin percentage of cells plus the summary row.
inline void print_report(const std::string& label,
                         const aging::AgingReport& report) {
  std::cout << "\n-- " << label << " --\n";
  std::cout << "  mean SNM degradation: "
            << util::Table::num(report.snm_stats.mean(), 2)
            << "%  (min " << util::Table::num(report.snm_stats.min(), 2)
            << "%, max " << util::Table::num(report.snm_stats.max(), 2)
            << "%)\n";
  std::cout << "  cells at optimal (~10.8%) level: "
            << util::Table::num(100.0 * report.fraction_optimal, 2) << "%\n";
  std::cout << report.snm_histogram.to_string(1, 40);
}

/// One spec per policy: `base` with one whole-memory region under it.
inline std::vector<core::ScenarioSpec> policy_specs(
    const core::ScenarioSpec& base,
    std::span<const core::PolicyConfig> policies) {
  std::vector<core::ScenarioSpec> specs;
  for (const core::PolicyConfig& policy : policies) {
    specs.push_back(base);
    specs.back().regions = {{"memory", 1.0, policy}};
  }
  return specs;
}

/// The write stream of the spec's first phase on its hardware, for the
/// facts a report does not carry (K, writes per inference, energy). The
/// payloads build at the hardware thread budget.
inline std::unique_ptr<sim::WriteStream> make_stream(
    const core::ScenarioSpec& spec) {
  const dnn::Network network = dnn::make_network(spec.phases.front().network);
  const dnn::WeightStreamer streamer(network);
  const quant::WeightWordCodec codec(streamer, spec.format);
  if (spec.hardware == core::HardwareKind::kBaseline)
    return std::make_unique<sim::BaselineWeightStream>(
        sim::EncodedRows::build(codec, sim::baseline_dataflow(spec.baseline),
                                0),
        spec.baseline);
  return std::make_unique<sim::NpuWeightStream>(
      sim::EncodedRows::build(codec, sim::npu_dataflow(spec.npu), 0), spec.npu);
}

}  // namespace dnnlife::benchutil
