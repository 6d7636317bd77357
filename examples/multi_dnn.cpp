// Multi-DNN deployment example: an NPU that spends its lifetime
// alternating between networks. The paper evaluates each network
// individually; this example uses the workload-schedule extension to show
// (a) that a mixed workload partially masks the custom net's inversion
// pathology, and (b) that DNN-Life is optimal regardless of the mix.
#include <array>
#include <iostream>
#include <stdexcept>

#include "aging/snm_histogram.hpp"
#include "core/policy_engine.hpp"
#include "core/workload.hpp"
#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/tpu_npu.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run_study(int argc, char** argv) {
  using namespace dnnlife;
  using core::PolicyConfig;
  using core::WorkloadPhase;

  // Optional CLI: multi_dnn [baseline-policy] — the PolicyRegistry name of
  // the mitigation to compare DNN-Life against (default: inversion).
  util::FlagTable flags("example_multi_dnn", "[baseline-policy]", 1);
  if (!flags.parse(argc, argv)) return 1;
  PolicyConfig baseline = PolicyConfig::inversion();
  if (!flags.positionals().empty()) {
    baseline.kind = flags.positionals().front();
    core::PolicyRegistry::instance().at(baseline.kind);  // unknown names throw
  }
  std::cout << "Multi-DNN workload study (TPU-like NPU, int8-symmetric)\n\n";

  const dnn::Network custom = dnn::make_custom_mnist();
  const dnn::Network alexnet = dnn::make_alexnet();
  const dnn::WeightStreamer custom_streamer(custom);
  const dnn::WeightStreamer alexnet_streamer(alexnet);
  const quant::WeightWordCodec custom_codec(custom_streamer,
                                            quant::WeightFormat::kInt8Symmetric);
  const quant::WeightWordCodec alexnet_codec(alexnet_streamer,
                                             quant::WeightFormat::kInt8Symmetric);
  const sim::NpuWeightStream custom_stream(custom_codec);
  const sim::NpuWeightStream alexnet_stream(alexnet_codec);

  const aging::CalibratedNbtiDeviceModel model;
  util::Table table({"workload", "policy", "mean SNM [%]", "max SNM [%]",
                     "% optimal"});
  const auto evaluate = [&](const std::string& label,
                            std::span<const WorkloadPhase> phases,
                            const PolicyConfig& policy) {
    const auto tracker = core::simulate_workload(phases, policy);
    const aging::EnvironmentSegmentView segment{&tracker, {}};
    const auto report = make_aging_report({&segment, 1}, model);
    table.add_row({label, policy.name(),
                   util::Table::num(report.snm_stats.mean(), 2),
                   util::Table::num(report.snm_stats.max(), 2),
                   util::Table::num(100.0 * report.fraction_optimal, 1)});
  };

  const std::array<WorkloadPhase, 1> custom_only = {
      WorkloadPhase{&custom_stream, 100}};
  const std::array<WorkloadPhase, 2> mixed = {
      WorkloadPhase{&custom_stream, 50}, WorkloadPhase{&alexnet_stream, 50}};
  for (const auto& policy :
       {baseline, PolicyConfig::dnn_life(0.7, true, 4)}) {
    evaluate("custom only", custom_only, policy);
    evaluate("custom + AlexNet (50/50)", mixed, policy);
  }
  std::cout << table.to_string();
  std::cout << "\nA mixed workload happens to dilute the inversion pathology\n"
               "(AlexNet's varied tiles rewrite the same cells), but relying\n"
               "on workload luck is exactly what DNN-Life avoids: its rows\n"
               "are balanced by construction under any schedule.\n";
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_study(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
