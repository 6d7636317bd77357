// Declarative scenario runner: one JSON description → per-region aging
// and lifetime reports over a phase-conditioned environment timeline.
//
//   example_scenario_runner [scenario.json] [flags]
//
// Flags (override the document without editing it):
//   --aging-model=NAME    device model from the AgingModelRegistry
//   --phase-temp=IDX:C    temperature [°C] of phase IDX (repeatable)
//   --jobs=N              simulation/report concurrency budget (0 =
//                         hardware concurrency; overrides the document's
//                         "threads"). A budget on the shared session
//                         executor, not a thread count
//   --executor-threads=N  size the process-wide executor (default: the
//                         DNNLIFE_EXECUTOR_THREADS environment variable,
//                         else hardware concurrency); results are
//                         bit-identical for any value
//   --csv=PATH            export the per-region lifetime breakdown as CSV
//   --sim-cache-mb=N      duty-state cache budget in MiB (0 disables, the
//                         default). A single run simulates each spec once,
//                         so the cache only pays off when the runner is
//                         invoked as a library-style harness; the flag
//                         exists mainly to exercise the cache-aware
//                         run_scenario path and print its counters
//   --sim-store=DIR       content-addressed disk store of committed duty
//                         state (see README "Simulation reuse"): the run
//                         probes DIR/<fingerprint>.simstate before
//                         simulating and durably publishes on a miss, so
//                         repeated invocations of one scenario — or a
//                         sweep sharing the directory — skip simulation.
//                         Reports are byte-identical either way; a store
//                         stats line prints at the end
//
// Without a file it runs a built-in thermal scenario: a TPU-like NPU
// alternating between the custom MNIST net (cool, batch duty) and AlexNet
// (a hot sustained phase at 85 °C), DNN-Life protecting the hot first
// quarter of the weight FIFO, evaluated under the Arrhenius-accelerated
// NBTI model — the temperature-corner deployment the paper's single
// operating point cannot express.
#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "core/scenario.hpp"
#include "core/sim_cache.hpp"
#include "core/sim_store.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/executor.hpp"
#include "util/fsio.hpp"
#include "util/table.hpp"

namespace {

using dnnlife::util::flag_value;

constexpr const char* kDefaultScenario = R"json({
  "name": "hybrid-hot-cold",
  "hardware": "tpu-like-npu",
  "format": "int8-symmetric",
  "npu": {"array_dim": 256, "fifo_tiles": 4},
  "aging_model": "arrhenius-nbti",
  "phases": [
    {"network": "custom_mnist", "inferences": 60},
    {"network": "alexnet", "inferences": 40,
     "environment": {"temperature_c": 85.0}}
  ],
  "regions": [
    {"name": "hot", "rows": 0.25,
     "policy": {"kind": "dnn-life", "trbg_bias": 0.7, "balancer_bits": 4}},
    {"name": "cold", "rows": 0.75, "policy": {"kind": "no-mitigation"}}
  ],
  "threads": 2
})json";

}  // namespace

int main(int argc, char** argv) {
  using namespace dnnlife;
  std::string text = kDefaultScenario;
  bool have_file = false;
  std::string aging_model_override;
  std::string csv_path;
  std::optional<unsigned> jobs;
  std::optional<unsigned> executor_threads;
  unsigned sim_cache_mb = 0;
  std::string sim_store_dir;
  std::vector<std::pair<std::size_t, double>> phase_temps;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (flag_value(arg, "aging-model", value)) {
      aging_model_override = value;
    } else if (flag_value(arg, "jobs", value)) {
      unsigned parsed = 0;
      if (!util::parse_unsigned_flag(value, parsed)) {
        std::cerr << "--jobs expects a number, got '" << value << "'\n";
        return 1;
      }
      if (parsed > 1024) {
        std::cerr << "--jobs=" << parsed
                  << " exceeds the per-scenario budget bound of 1024; it is "
                     "a concurrency budget on the shared executor — use "
                     "--executor-threads to size the actual workers\n";
        return 1;
      }
      jobs = parsed;
    } else if (flag_value(arg, "executor-threads", value)) {
      unsigned parsed = 0;
      if (!util::parse_unsigned_flag(value, parsed) || parsed > 4096) {
        std::cerr << "--executor-threads expects a worker count in 0..4096 "
                     "(0 = hardware concurrency), got '" << value << "'\n";
        return 1;
      }
      executor_threads = parsed;
    } else if (flag_value(arg, "phase-temp", value)) {
      const std::size_t colon = value.find(':');
      unsigned index = 0;
      double celsius = 0.0;
      if (colon == std::string::npos ||
          !util::parse_unsigned_flag(value.substr(0, colon), index) ||
          !util::parse_double_flag(value.substr(colon + 1), celsius)) {
        std::cerr << "--phase-temp expects IDX:CELSIUS, got '" << value
                  << "'\n";
        return 1;
      }
      phase_temps.emplace_back(index, celsius);
    } else if (flag_value(arg, "csv", value)) {
      csv_path = value;
    } else if (flag_value(arg, "sim-cache-mb", value)) {
      unsigned parsed = 0;
      if (!util::parse_unsigned_flag(value, parsed) || parsed > (1u << 20)) {
        std::cerr << "--sim-cache-mb expects a MiB budget in 0..1048576 "
                     "(0 disables), got '" << value << "'\n";
        return 1;
      }
      sim_cache_mb = parsed;
    } else if (flag_value(arg, "sim-store", value)) {
      if (value.empty()) {
        std::cerr << "--sim-store expects a directory path\n";
        return 1;
      }
      sim_store_dir = value;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag " << arg << "\n";
      return 1;
    } else if (have_file) {
      std::cerr << "at most one scenario file may be given (got '" << arg
                << "' after another positional argument)\n";
      return 1;
    } else {
      try {
        text = util::read_file(arg);
      } catch (const std::exception& error) {
        std::cerr << "scenario file: " << error.what() << "\n";
        return 1;
      }
      have_file = true;
    }
  }

  core::ScenarioSpec spec;
  try {
    spec = core::parse_scenario(text);
    if (!aging_model_override.empty()) {
      if (!aging::AgingModelRegistry::instance().contains(
              aging_model_override))
        throw std::invalid_argument("unknown --aging-model '" +
                                    aging_model_override + "'");
      spec.aging_model = aging_model_override;
    }
    for (const auto& [index, celsius] : phase_temps) {
      if (index >= spec.phases.size())
        throw std::invalid_argument("--phase-temp index " +
                                    std::to_string(index) +
                                    " out of range (scenario has " +
                                    std::to_string(spec.phases.size()) +
                                    " phases)");
      spec.phases[index].environment.temperature_c = celsius;
      aging::validate_environment(spec.phases[index].environment);
    }
  } catch (const std::exception& error) {
    std::cerr << "scenario error: " << error.what() << "\n";
    return 1;
  }

  if (jobs.has_value()) spec.threads = *jobs;
  if (executor_threads.has_value())
    util::Executor::configure_session(*executor_threads);
  std::cout << "scenario: " << spec.name << " ("
            << core::to_string(spec.hardware) << ", "
            << quant::to_string(spec.format) << ", model " << spec.aging_model
            << ")\n";
  std::cout << "running " << spec.phases.size() << " phase"
            << (spec.phases.size() == 1 ? "" : "s") << " with a budget of "
            << util::resolve_thread_count(spec.threads)
            << " on the session executor ..." << std::endl;
  // Runtime validation (e.g. an unreachable lifetime threshold for the
  // selected model) must reach the user as cleanly as parse errors.
  std::shared_ptr<core::SimCache> sim_cache;
  if (sim_cache_mb > 0)
    sim_cache = std::make_shared<core::SimCache>(
        static_cast<std::size_t>(sim_cache_mb) * 1024 * 1024);
  std::shared_ptr<core::SimStore> sim_store;
  if (!sim_store_dir.empty()) {
    try {
      // Validated up front: created if missing, probe-written.
      sim_store = std::make_shared<core::SimStore>(
          core::SimStore::Options{sim_store_dir, 0});
    } catch (const std::exception& error) {
      std::cerr << "sim store error: " << error.what() << "\n";
      return 1;
    }
  }
  std::optional<core::ScenarioResult> run;
  const auto start = std::chrono::steady_clock::now();
  try {
    core::RunScenarioOptions options;
    options.sim_cache = sim_cache;
    options.sim_store = sim_store;
    run = core::run_scenario(spec, options);
  } catch (const std::exception& error) {
    std::cerr << "scenario error: " << error.what() << "\n";
    return 1;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::cout << "done in " << util::Table::num(seconds, 2) << " s\n";
  const core::ScenarioResult& result = *run;
  std::cout << "memory: " << result.geometry.rows << " rows x "
            << result.geometry.row_bits << " bits\nphases:";
  for (const std::string& label : result.phase_labels)
    std::cout << " [" << label << "]";
  std::cout << "\n\n";

  const bool has_lifetime = result.lifetime.has_value();
  util::Table table({"region", "cells", "mean SNM [%]", "max SNM [%]",
                     "mean duty", "% optimal", "lifetime [y]"});
  std::unique_ptr<util::CsvWriter> csv;
  if (!csv_path.empty())
    csv = std::make_unique<util::CsvWriter>(
        csv_path,
        std::vector<std::string>{"region", "cells", "unused_cells",
                                 "snm_mean_pct", "snm_max_pct", "duty_mean",
                                 "fraction_optimal", "device_lifetime_years",
                                 "cell_lifetime_mean_years"});
  for (std::size_t r = 0; r < result.report.regions.size(); ++r) {
    const auto& region = result.report.regions[r];
    const aging::RegionLifetime* lifetime =
        has_lifetime && r < result.lifetime->regions.size()
            ? &result.lifetime->regions[r]
            : nullptr;
    const bool used = region.total_cells > region.unused_cells;
    table.add_row({region.name, std::to_string(region.total_cells),
                   used ? util::Table::num(region.snm_stats.mean(), 2) : "-",
                   used ? util::Table::num(region.snm_stats.max(), 2) : "-",
                   used ? util::Table::num(region.duty_stats.mean(), 3) : "-",
                   used ? util::Table::num(100.0 * region.fraction_optimal, 1)
                        : "-",
                   lifetime != nullptr && lifetime->cell_lifetime.count() > 0
                       ? util::Table::num(lifetime->device_lifetime_years, 1)
                       : "-"});
    if (csv)
      csv->add_row(
          {region.name, std::to_string(region.total_cells),
           std::to_string(region.unused_cells),
           util::Table::num(region.snm_stats.mean(), 4),
           util::Table::num(region.snm_stats.max(), 4),
           util::Table::num(region.duty_stats.mean(), 5),
           util::Table::num(region.fraction_optimal, 5),
           lifetime != nullptr && lifetime->cell_lifetime.count() > 0
               ? util::Table::num(lifetime->device_lifetime_years, 3)
               : "",
           lifetime != nullptr && lifetime->cell_lifetime.count() > 0
               ? util::Table::num(lifetime->cell_lifetime.mean(), 3)
               : ""});
  }
  table.add_row(
      {"(whole memory)", std::to_string(result.report.total_cells),
       util::Table::num(result.report.snm_stats.mean(), 2),
       util::Table::num(result.report.snm_stats.max(), 2),
       util::Table::num(result.report.duty_stats.mean(), 3),
       util::Table::num(100.0 * result.report.fraction_optimal, 1),
       has_lifetime
           ? util::Table::num(result.lifetime->device_lifetime_years, 1)
           : "-"});
  std::cout << table.to_string();
  if (has_lifetime)
    std::cout << "\ndevice lifetime "
              << util::Table::num(result.lifetime->device_lifetime_years, 2)
              << " y ("
              << util::Table::num(result.lifetime->improvement_over_worst_case,
                                  1)
              << "x the worst case, "
              << util::Table::num(100.0 * result.lifetime->fraction_of_ideal, 1)
              << "% of ideal) under model " << spec.aging_model << "\n";
  if (csv)
    std::cout << "per-region lifetime breakdown written to " << csv_path
              << "\n";
  if (sim_cache) {
    const core::SimCacheStats stats = sim_cache->stats();
    std::cout << "sim cache: " << stats.hits << " hit"
              << (stats.hits == 1 ? "" : "s") << ", " << stats.misses
              << " miss" << (stats.misses == 1 ? "" : "es") << ", "
              << stats.evictions << " evicted, " << stats.entries
              << " resident ("
              << util::Table::num(
                     static_cast<double>(stats.bytes_in_use) / (1024.0 * 1024.0),
                     1)
              << " MB; fingerprint " << core::simulation_fingerprint(spec)
              << ")\n";
  }
  if (sim_store) {
    const core::SimStoreStats stats = sim_store->stats();
    std::cout << "sim store: " << stats.hits << " hit"
              << (stats.hits == 1 ? "" : "s") << ", " << stats.misses
              << " miss" << (stats.misses == 1 ? "" : "es") << ", "
              << stats.publishes << " publish"
              << (stats.publishes == 1 ? "" : "es") << ", "
              << stats.quarantined << " quarantined (dir " << sim_store_dir
              << "; fingerprint " << core::simulation_fingerprint(spec)
              << ")\n";
  }
  std::cout << "\nOne declarative spec drove network construction, "
               "quantization,\nstream generation, per-region policy engines, "
               "the environment\ntimeline and the aging/lifetime reports.\n";
  return 0;
}
