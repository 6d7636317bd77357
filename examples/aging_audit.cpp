// Aging audit: compare all mitigation policies for a chosen network,
// weight format and accelerator — SNM degradation and device lifetime,
// under any registered device-aging model and operating environment.
//
// Usage: aging_audit [network] [format] [hardware] [inferences] [flags]
//   network:  alexnet | vgg16 | googlenet | resnet152 | custom_mnist
//   format:   float32 | int8-symmetric | int8-asymmetric
//   hardware: baseline | npu
// Flags:
//   --aging-model=NAME   device model from the AgingModelRegistry
//                        (calibrated-nbti | arrhenius-nbti | pbti-hci | ...)
//   --temperature=C      operating temperature [°C] (default 55, nominal)
//   --vdd=V              supply voltage relative to nominal (default 1.0)
//   --activity=A         fraction of lifetime under stress (default 1.0)
//   --csv=PATH           export the per-region lifetime breakdown as CSV
// Defaults: custom_mnist int8-symmetric npu 100. Unknown names, numbers
// with trailing garbage and negative or zero inference counts exit 1.
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "aging/model_registry.hpp"
#include "core/scenario_suite.hpp"
#include "dnn/model_zoo.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int run_audit(int argc, char** argv) {
  using namespace dnnlife;
  using core::PolicyConfig;

  core::ScenarioSpec spec;
  aging::EnvironmentSpec environment;
  std::string csv_path;
  util::FlagTable flags("example_aging_audit",
                        "[network] [format] [hardware] [inferences]", 4);
  flags.add(util::text_flag("aging-model", "NAME", spec.aging_model,
                            "registered device-aging model"))
      .add(util::real_flag("temperature", "C", environment.temperature_c,
                           "temperature [°C]"))
      .add(util::real_flag("vdd", "V", environment.vdd, "relative vdd"))
      .add(util::real_flag("activity", "A", environment.activity_scale,
                           "fraction of lifetime under stress"))
      .add(util::text_flag("csv", "PATH", csv_path, "per-region CSV"));
  if (!flags.parse(argc, argv)) return 1;
  std::vector<std::string> args = flags.positionals();
  const std::vector<std::string> defaults = {"custom_mnist", "int8-symmetric",
                                             "npu", "100"};
  args.insert(args.end(), defaults.begin() + args.size(), defaults.end());
  const std::string& network = args[0];
  spec.format = quant::weight_format_from_string(args[1]);
  if (args[2] != "baseline" && args[2] != "npu")
    throw std::invalid_argument("unknown hardware '" + args[2] +
                                "' (expected baseline or npu)");
  spec.hardware = args[2] == "baseline" ? core::HardwareKind::kBaseline
                                        : core::HardwareKind::kTpuNpu;
  unsigned inferences = 0;
  if (!util::parse_unsigned_flag(args[3], inferences))
    throw std::invalid_argument("inferences expects a number, got '" +
                                args[3] + "'");
  // A dormant phase ages nothing and has no lifetime to audit.
  if (inferences == 0)
    throw std::invalid_argument("inferences must be at least 1");
  // Fail flag mistakes before the (expensive) payload build.
  aging::AgingModelRegistry::instance().at(spec.aging_model);
  aging::validate_environment(environment);
  // One phase: the whole lifetime sits at the audited operating point,
  // evaluated through the registry-selected model.
  spec.phases = {{.network = network,
                  .inferences = inferences,
                  .environment = environment}};

  std::cout << "Aging audit: " << network << ", "
            << quant::to_string(spec.format) << ", "
            << core::to_string(spec.hardware) << ", " << inferences
            << " inferences, 7-year horizon\n"
            << "model: " << spec.aging_model << " @ "
            << environment.temperature_c << "C, " << environment.vdd
            << " vdd, " << environment.activity_scale << " activity\n\n";

  {
    const dnn::Network net = dnn::make_network(network);
    const dnn::WeightStreamer streamer(net);
    const quant::WeightWordCodec codec(streamer, spec.format);
    std::unique_ptr<sim::WriteStream> stream;
    if (spec.hardware == core::HardwareKind::kBaseline)
      stream = std::make_unique<sim::BaselineWeightStream>(codec, spec.baseline);
    else
      stream = std::make_unique<sim::NpuWeightStream>(codec, spec.npu);
    std::cout << "weight memory: " << stream->geometry().rows << " rows x "
              << stream->geometry().row_bits
              << " bits; K = " << stream->blocks_per_inference()
              << " mappings/inference; " << stream->writes_per_inference()
              << " row writes\n\n";
  }

  const std::vector<PolicyConfig> policies = {
      PolicyConfig::none(),
      PolicyConfig::inversion(),
      PolicyConfig::barrel_shifter(quant::bits_per_weight(spec.format)),
      PolicyConfig::dnn_life(0.5),
      PolicyConfig::dnn_life(0.7, false),
      PolicyConfig::dnn_life(0.7, true, 4),
  };
  std::vector<core::ScenarioSpec> specs;
  for (const PolicyConfig& policy : policies) {
    spec.regions = {{"memory", 1.0, policy}};
    specs.push_back(spec);
  }
  const std::vector<core::ScenarioResult> results = core::run_specs(specs);

  std::unique_ptr<util::CsvWriter> csv;
  if (!csv_path.empty())
    csv = std::make_unique<util::CsvWriter>(
        csv_path,
        std::vector<std::string>{"policy", "region", "cells", "unused_cells",
                                 "snm_mean_pct", "snm_max_pct", "duty_mean",
                                 "fraction_optimal", "device_lifetime_years",
                                 "cell_lifetime_mean_years"});

  util::Table table({"policy", "mean SNM [%]", "max SNM [%]", "mean duty",
                     "% optimal", "lifetime [y]", "x worst"});
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const std::string name = policies[i].name();
    const aging::AgingReport& report = results[i].report;
    const aging::LifetimeReport& lifetime = *results[i].lifetime;
    table.add_row({name, util::Table::num(report.snm_stats.mean(), 2),
                   util::Table::num(report.snm_stats.max(), 2),
                   util::Table::num(report.duty_stats.mean(), 3),
                   util::Table::num(100.0 * report.fraction_optimal, 1),
                   util::Table::num(lifetime.device_lifetime_years, 1),
                   util::Table::num(lifetime.improvement_over_worst_case, 1)});
    if (csv) {
      // Per-region lifetime breakdown (uniform audits carry one
      // whole-memory region; region tables break out further).
      for (std::size_t r = 0; r < report.regions.size(); ++r) {
        const aging::RegionAging& region = report.regions[r];
        const aging::RegionLifetime& region_lifetime = lifetime.regions[r];
        csv->add_row({name, region.name,
                      std::to_string(region.total_cells),
                      std::to_string(region.unused_cells),
                      util::Table::num(region.snm_stats.mean(), 4),
                      util::Table::num(region.snm_stats.max(), 4),
                      util::Table::num(region.duty_stats.mean(), 5),
                      util::Table::num(region.fraction_optimal, 5),
                      util::Table::num(region_lifetime.device_lifetime_years, 3),
                      util::Table::num(region_lifetime.cell_lifetime.mean(), 3)});
      }
    }
  }
  std::cout << table.to_string();
  std::cout << "\n'% optimal' counts cells within 2 percentage points of the\n"
               "minimum achievable degradation; 'lifetime' is the first-cell\n"
               "failure at the "
            << spec.lifetime.snm_failure_threshold
            << "% SNM threshold under the selected model.\n";
  if (csv)
    std::cout << "per-region lifetime breakdown written to " << csv_path
              << "\n";
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_audit(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
