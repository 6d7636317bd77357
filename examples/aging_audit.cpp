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
// with trailing garbage and negative inference counts exit 1.
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "aging/lifetime.hpp"
#include "aging/model_registry.hpp"
#include "core/experiment.hpp"
#include "core/fast_simulator.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int run_audit(int argc, char** argv) {
  using namespace dnnlife;
  using core::PolicyConfig;

  core::ExperimentConfig config;
  std::string csv_path;
  util::FlagTable flags("example_aging_audit",
                        "[network] [format] [hardware] [inferences]", 4);
  flags.add(util::text_flag("aging-model", "NAME", config.aging_model,
                            "registered device-aging model"))
      .add(util::real_flag("temperature", "C",
                           config.environment.temperature_c, "temperature [°C]"))
      .add(util::real_flag("vdd", "V", config.environment.vdd, "relative vdd"))
      .add(util::real_flag("activity", "A", config.environment.activity_scale,
                           "fraction of lifetime under stress"))
      .add(util::text_flag("csv", "PATH", csv_path, "per-region CSV"));
  if (!flags.parse(argc, argv)) return 1;
  std::vector<std::string> args = flags.positionals();
  const std::vector<std::string> defaults = {"custom_mnist", "int8-symmetric",
                                             "npu", "100"};
  args.insert(args.end(), defaults.begin() + args.size(), defaults.end());
  config.network = args[0];
  config.format = quant::weight_format_from_string(args[1]);
  if (args[2] != "baseline" && args[2] != "npu")
    throw std::invalid_argument("unknown hardware '" + args[2] +
                                "' (expected baseline or npu)");
  config.hardware = args[2] == "baseline" ? core::HardwareKind::kBaseline
                                          : core::HardwareKind::kTpuNpu;
  if (!util::parse_unsigned_flag(args[3], config.inferences))
    throw std::invalid_argument("inferences expects a number, got '" +
                                args[3] + "'");
  // Fail flag mistakes before the (expensive) workbench build.
  aging::AgingModelRegistry::instance().check(config.aging_model);
  aging::validate_environment(config.environment);

  std::cout << "Aging audit: " << config.network << ", "
            << quant::to_string(config.format) << ", "
            << core::to_string(config.hardware) << ", " << config.inferences
            << " inferences, 7-year horizon\n"
            << "model: " << config.aging_model << " @ "
            << config.environment.temperature_c << "C, "
            << config.environment.vdd << " vdd, "
            << config.environment.activity_scale << " activity\n\n";

  const core::Workbench bench(config);
  std::cout << "weight memory: " << bench.stream().geometry().rows
            << " rows x " << bench.stream().geometry().row_bits
            << " bits; K = " << bench.stream().blocks_per_inference()
            << " mappings/inference; "
            << bench.stream().writes_per_inference() << " row writes\n\n";

  const std::vector<PolicyConfig> policies = {
      PolicyConfig::none(),
      PolicyConfig::inversion(),
      PolicyConfig::barrel_shifter(quant::bits_per_weight(config.format)),
      PolicyConfig::dnn_life(0.5),
      PolicyConfig::dnn_life(0.7, false),
      PolicyConfig::dnn_life(0.7, true, 4),
  };

  const aging::LifetimeModel lifetime_model(bench.shared_model());
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
  for (const auto& policy : policies) {
    auto bound = policy;
    bound.weight_bits = bench.codec().bits();
    core::FastSimOptions options;
    options.inferences = config.inferences;
    options.threads = config.simulator_threads;
    const auto tracker = core::simulate_fast(bench.stream(), bound, options);
    // One environment segment: the whole lifetime sits at the audited
    // operating point, evaluated through the registry-selected model.
    const aging::EnvironmentSegmentView segment{&tracker, config.environment};
    const auto report =
        make_aging_report({&segment, 1}, bench.model(), config.report);
    const auto lifetime = make_lifetime_report({&segment, 1}, lifetime_model);
    table.add_row({policy.name(), util::Table::num(report.snm_stats.mean(), 2),
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
        csv->add_row({policy.name(), region.name,
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
            << lifetime_model.params().snm_failure_threshold
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
