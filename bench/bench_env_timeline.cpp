// Extension: phase-conditioned environment timelines across the registered
// device-aging models. One workload (custom MNIST on the TPU-like NPU,
// DNN-Life protected) evaluated over temperature corners and DVFS-style
// timelines — the operating-point sweep the paper's single implicit
// environment cannot express.
//
//   bench_env_timeline [--threads=N] [--json=PATH]
//
// --threads sets the report-evaluation shard count (default 0 = hardware
// concurrency; results are bit-identical for any value). --json writes the
// per-model wall times — CI gates on the pbti-hci lifetime seconds, the
// solve the Newton inversion and the sharded report pipeline speed up
// (see bench/bench_env_timeline_reference.json).
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "aging/lifetime.hpp"
#include "aging/model_registry.hpp"
#include "bench_util.hpp"
#include "core/workload.hpp"
#include "util/cli.hpp"
#include "util/executor.hpp"
#include "util/table.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dnnlife;
  unsigned threads = 0;  // hardware concurrency
  std::string json_path;
  util::FlagTable flags("bench_env_timeline");
  flags.add(util::unsigned_flag("threads", threads,
                               "report-evaluation threads (0 = hardware)"))
      .add(util::text_flag("json", "PATH", json_path, "results as JSON"));
  if (!flags.parse(argc, argv)) return 1;
  const unsigned resolved_threads = util::resolve_thread_count(threads);
  benchutil::print_heading(
      "Device lifetime across environment timelines (registered models)");
  std::cout << "report-evaluation threads: " << resolved_threads << "\n";

  core::ScenarioSpec spec;
  spec.hardware = core::HardwareKind::kTpuNpu;
  // A small FIFO keeps the per-cell lifetime solves of the non-power-law
  // PBTI/HCI model (generic safeguarded-Newton inversion) in report
  // territory.
  spec.npu.array_dim = 64;
  spec.npu.fifo_tiles = 2;
  spec.phases = {{"custom_mnist", 100, {}}};
  const auto stream = benchutil::make_stream(spec);
  const auto table = core::RegionPolicyTable::uniform(
      stream->geometry(), [&] {
        auto policy = core::PolicyConfig::dnn_life(0.7, true, 4);
        policy.weight_bits = quant::bits_per_weight(spec.format);
        return policy;
      }());

  aging::EnvironmentSpec hot;
  hot.temperature_c = 95.0;
  aging::EnvironmentSpec turbo;
  turbo.temperature_c = 85.0;
  turbo.vdd = 1.15;
  const std::vector<std::pair<std::string, std::vector<core::WorkloadPhase>>>
      timelines = {
          {"nominal (55C)", {{stream.get(), 50}, {stream.get(), 50}}},
          {"half hot (95C)", {{stream.get(), 50}, {stream.get(), 50, hot}}},
          {"always hot (95C)",
           {{stream.get(), 50, hot}, {stream.get(), 50, hot}}},
          {"turbo DVFS (85C, 1.15 vdd)",
           {{stream.get(), 50}, {stream.get(), 50, turbo}}},
      };

  aging::AgingReportOptions report_options;
  report_options.threads = threads;

  struct ModelTiming {
    std::string model;
    double report_seconds = 0.0;
    double lifetime_seconds = 0.0;
  };
  std::vector<ModelTiming> timings;
  for (const char* name :
       {"calibrated-nbti", "arrhenius-nbti", "pbti-hci", "dual-bti"}) {
    const std::shared_ptr<const aging::DeviceAgingModel> model =
        aging::make_aging_model(name);
    const aging::LifetimeModel lifetime_model(model);
    benchutil::print_heading(std::string("model: ") + name);
    util::Table out({"timeline", "mean SNM [%]", "max SNM [%]",
                     "device lifetime [y]", "x worst-case", "wall [s]"});
    ModelTiming timing;
    timing.model = name;
    for (const auto& [label, phases] : timelines) {
      const core::PhasedWorkloadResult phased =
          core::simulate_workload_phased(phases, table);
      const std::vector<aging::EnvironmentSegmentView> segments =
          aging::segment_views(phased.segments);
      const auto report_start = std::chrono::steady_clock::now();
      const auto report = make_aging_report(segments, *model, report_options);
      const double report_seconds = seconds_since(report_start);
      const auto lifetime_start = std::chrono::steady_clock::now();
      const auto lifetime =
          make_lifetime_report(segments, lifetime_model, threads);
      const double lifetime_seconds = seconds_since(lifetime_start);
      timing.report_seconds += report_seconds;
      timing.lifetime_seconds += lifetime_seconds;
      out.add_row({label, util::Table::num(report.snm_stats.mean(), 2),
                   util::Table::num(report.snm_stats.max(), 2),
                   util::Table::num(lifetime.device_lifetime_years, 2),
                   util::Table::num(lifetime.improvement_over_worst_case, 2),
                   util::Table::num(report_seconds + lifetime_seconds, 3)});
    }
    std::cout << out.to_string();
    std::cout << "total: reports " << util::Table::num(timing.report_seconds, 3)
              << " s, lifetime solves "
              << util::Table::num(timing.lifetime_seconds, 3) << " s\n";
    timings.push_back(timing);
  }
  std::cout << "\nThe default engine is pinned to the paper's operating point\n"
               "(temperature-agnostic); the Arrhenius model accelerates both\n"
               "hot phases and DVFS overdrive, and the PBTI/HCI variant's\n"
               "activity-driven term ages even duty-balanced cells.\n";

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "cannot open '" << json_path << "' for writing\n";
      return 1;
    }
    json << "{\n  \"threads\": " << resolved_threads << ",\n"
         << "  \"models\": [\n";
    for (std::size_t i = 0; i < timings.size(); ++i) {
      const ModelTiming& timing = timings[i];
      json << "    {\"model\": \"" << timing.model << "\", "
           << "\"report_seconds\": "
           << util::Table::num(timing.report_seconds, 4) << ", "
           << "\"lifetime_seconds\": "
           << util::Table::num(timing.lifetime_seconds, 4) << "}"
           << (i + 1 < timings.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "timings written to " << json_path << "\n";
  }
  return 0;
}
