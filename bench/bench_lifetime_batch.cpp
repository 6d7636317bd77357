// Lifetime and aging reports vs the per-cell lifetime solve across the
// registered models.
//
// One synthetic tracker with the counter-ratio duty repetition real
// memories produce (128Ki cells, ~1000 distinct ratios), evaluated three
// ways per model: the per-cell solver loop (one years_to_reach per used
// cell, the cost make_lifetime_report paid before memoisation), the
// lifetime report and the aging report. Each report keys the state into
// its history table and evaluates every distinct history once.
//
// A second, two-segment case times the multi-environment (timeline)
// reports: 128Ki cells whose hot quarter carries all-distinct stress
// histories and whose cold remainder repeats seven, the shape of a
// dnn-life hot region next to unmitigated rows. It is timed against the
// per-cell timeline solve loop (one years_to_failure per used cell).
//
// Both tables print each case's whole-state distinct-history count (the
// number of model evaluations a report makes), also in the --json models.
//
//   bench_lifetime_batch [--threads=N] [--json=PATH]
//
// --threads sets the report concurrency budget (default 1 — the
// per-cell/report comparison is cleanest single-threaded; results are
// bit-identical for any value). --json writes the timings plus the
// duty-kernel variant — CI gates the one-segment lifetime report seconds
// against bench/bench_throughput_reference.json (per-cell baselines),
// failing on a >2x regression.
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "aging/lifetime.hpp"
#include "aging/model_registry.hpp"
#include "aging/report_evaluator.hpp"
#include "aging/snm_histogram.hpp"
#include "bench_util.hpp"
#include "util/bitops.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dnnlife;
  unsigned threads = 1;
  std::string json_path;
  util::FlagTable flags("bench_lifetime_batch");
  flags.add(util::unsigned_flag("threads", threads,
                               "report-evaluation threads"))
      .add(util::text_flag("json", "PATH", json_path, "results as JSON"));
  if (!flags.parse(argc, argv)) return 1;

  constexpr std::size_t kCells = 128 * 1024;
  constexpr std::uint32_t kDistinct = 997;
  aging::DutyCycleTracker tracker(kCells);
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    tracker.ones_time()[cell] =
        static_cast<std::uint32_t>(cell % kDistinct);
    tracker.total_time()[cell] = 1000;
  }

  // The two-segment timeline case: hot quarter distinct, cold remainder
  // repeating seven histories.
  aging::DutyCycleTracker cool(kCells);
  aging::DutyCycleTracker warm(kCells);
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    const bool hot_cell = cell < kCells / 4;
    cool.total_time()[cell] = hot_cell ? 1u << 20 : 1000;
    cool.ones_time()[cell] = static_cast<std::uint32_t>(
        hot_cell ? cell * 29 % (1u << 20) : cell % 7 * 150);
    warm.total_time()[cell] = 1000;
    warm.ones_time()[cell] = hot_cell ? 500 : 900;
  }
  aging::EnvironmentSpec warm_environment;
  warm_environment.temperature_c = 85.0;
  const std::vector<aging::EnvironmentSegmentView> timeline = {
      {&cool, {}}, {&warm, warm_environment}};
  const aging::EnvironmentSegmentView single{&tracker, {}};
  const std::size_t distinct_histories =
      aging::HistoryTable({&single, 1}).size();
  const std::size_t timeline_distinct_histories =
      aging::HistoryTable(timeline).size();

  benchutil::print_heading("Lifetime reports vs per-cell lifetime solves");
  std::cout << "cells: " << kCells << " (" << kDistinct
            << " distinct duty ratios), duty kernel: "
            << util::duty_kernel_variant() << ", threads: " << threads << "\n";

  struct ModelTiming {
    std::string model;
    double per_cell_seconds = 0.0;
    double lifetime_seconds = 0.0;
    double aging_seconds = 0.0;
    double timeline_per_cell_seconds = 0.0;
    double timeline_lifetime_seconds = 0.0;
    double timeline_aging_seconds = 0.0;
  };
  std::vector<ModelTiming> timings;
  util::Table out({"model", "histories", "per-cell [s]",
                   "lifetime report [s]", "aging report [s]", "speedup"});
  util::Table timeline_out({"model", "histories", "per-cell [s]",
                            "timeline lifetime [s]", "timeline aging [s]",
                            "speedup"});
  for (const char* name :
       {"calibrated-nbti", "arrhenius-nbti", "pbti-hci", "dual-bti"}) {
    const std::shared_ptr<const aging::DeviceAgingModel> model =
        aging::make_aging_model(name);
    const aging::LifetimeModel lifetime_model(model);
    const double threshold = lifetime_model.params().snm_failure_threshold;
    ModelTiming timing;
    timing.model = name;

    // The per-cell reference: one scalar inversion per used cell — the
    // inner loop make_lifetime_report ran before memoisation.
    const auto per_cell_start = std::chrono::steady_clock::now();
    double min_years = std::numeric_limits<double>::infinity();
    for (std::size_t cell = 0; cell < kCells; ++cell) {
      if (tracker.is_unused(cell)) continue;
      const double years = model->years_to_reach(
          tracker.duty(cell), threshold, aging::EnvironmentSpec{});
      if (years < min_years) min_years = years;
    }
    timing.per_cell_seconds = seconds_since(per_cell_start);

    const auto lifetime_start = std::chrono::steady_clock::now();
    const auto lifetime =
        make_lifetime_report({&single, 1}, lifetime_model, threads);
    timing.lifetime_seconds = seconds_since(lifetime_start);
    if (lifetime.device_lifetime_years != min_years) {
      std::cerr << "report/per-cell mismatch for " << name << "\n";
      return 1;
    }

    aging::AgingReportOptions options;
    options.threads = threads;
    const auto aging_start = std::chrono::steady_clock::now();
    const auto report = make_aging_report({&single, 1}, *model, options);
    timing.aging_seconds = seconds_since(aging_start);
    if (report.unused_cells != tracker.unused_cell_count()) return 1;

    // The per-cell timeline reference: gather and solve every cell.
    const auto timeline_per_cell_start = std::chrono::steady_clock::now();
    double timeline_min_years = std::numeric_limits<double>::infinity();
    std::vector<aging::StressSegment> history;
    for (std::size_t cell = 0; cell < kCells; ++cell) {
      if (aging::gather_cell_segments(timeline, cell, history).total == 0)
        continue;
      const double years = lifetime_model.years_to_failure(history);
      if (years < timeline_min_years) timeline_min_years = years;
    }
    timing.timeline_per_cell_seconds = seconds_since(timeline_per_cell_start);

    const auto timeline_lifetime_start = std::chrono::steady_clock::now();
    const auto timeline_lifetime =
        make_lifetime_report(timeline, lifetime_model, threads);
    timing.timeline_lifetime_seconds = seconds_since(timeline_lifetime_start);
    if (timeline_lifetime.device_lifetime_years != timeline_min_years) {
      std::cerr << "timeline memo/per-cell mismatch for " << name << "\n";
      return 1;
    }
    const auto timeline_aging_start = std::chrono::steady_clock::now();
    const auto timeline_report = make_aging_report(timeline, *model, options);
    timing.timeline_aging_seconds = seconds_since(timeline_aging_start);
    if (timeline_report.unused_cells != 0) return 1;

    out.add_row({timing.model, std::to_string(distinct_histories),
                 util::Table::num(timing.per_cell_seconds, 4),
                 util::Table::num(timing.lifetime_seconds, 4),
                 util::Table::num(timing.aging_seconds, 4),
                 util::Table::num(
                     timing.per_cell_seconds / timing.lifetime_seconds, 1)});
    timeline_out.add_row(
        {timing.model, std::to_string(timeline_distinct_histories),
         util::Table::num(timing.timeline_per_cell_seconds, 4),
         util::Table::num(timing.timeline_lifetime_seconds, 4),
         util::Table::num(timing.timeline_aging_seconds, 4),
         util::Table::num(timing.timeline_per_cell_seconds /
                              timing.timeline_lifetime_seconds,
                          1)});
    timings.push_back(timing);
  }
  std::cout << out.to_string();
  std::cout << "speedup = per-cell seconds / lifetime report seconds (one\n"
               "evaluation per distinct history).\n";
  std::cout << "\ntwo-segment timeline (" << kCells
            << " cells, distinct hot quarter, repeated cold remainder):\n"
            << timeline_out.to_string()
            << "speedup = per-cell timeline solve seconds / timeline lifetime\n"
               "report seconds (one solve per distinct history).\n";

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "cannot open '" << json_path << "' for writing\n";
      return 1;
    }
    json << "{\n  \"threads\": " << threads << ",\n"
         << "  \"duty_kernel\": \"" << util::duty_kernel_variant() << "\",\n"
         << "  \"cells\": " << kCells << ",\n  \"models\": [\n";
    for (std::size_t i = 0; i < timings.size(); ++i) {
      const ModelTiming& timing = timings[i];
      json << "    {\"model\": \"" << timing.model << "\", "
           << "\"per_cell_seconds\": "
           << util::Table::num(timing.per_cell_seconds, 4) << ", "
           << "\"lifetime_seconds\": "
           << util::Table::num(timing.lifetime_seconds, 4) << ", "
           << "\"aging_seconds\": "
           << util::Table::num(timing.aging_seconds, 4) << ", "
           << "\"timeline_per_cell_seconds\": "
           << util::Table::num(timing.timeline_per_cell_seconds, 4) << ", "
           << "\"timeline_lifetime_seconds\": "
           << util::Table::num(timing.timeline_lifetime_seconds, 4) << ", "
           << "\"timeline_aging_seconds\": "
           << util::Table::num(timing.timeline_aging_seconds, 4) << ", "
           << "\"distinct_histories\": " << distinct_histories << ", "
           << "\"timeline_distinct_histories\": "
           << timeline_distinct_histories << "}"
           << (i + 1 < timings.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "timings written to " << json_path << "\n";
  }
  return 0;
}
