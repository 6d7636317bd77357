#include "aging/snm_histogram.hpp"

#include <sstream>

#include "aging/report_evaluator.hpp"

namespace dnnlife::aging {

std::string AgingReport::to_string() const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(2);
  out << "cells: " << total_cells << " (unused: " << unused_cells << ")\n";
  out << "SNM degradation [%]: min " << snm_stats.min() << ", mean "
      << snm_stats.mean() << ", max " << snm_stats.max() << "\n";
  out << "duty-cycle: min " << duty_stats.min() << ", mean "
      << duty_stats.mean() << ", max " << duty_stats.max() << "\n";
  out << "cells at optimal degradation: " << 100.0 * fraction_optimal << "%\n";
  if (regions.size() > 1) {
    for (const RegionAging& region : regions) {
      out << "  region '" << region.name << "': " << region.total_cells
          << " cells";
      if (region.total_cells > region.unused_cells) {
        out << ", SNM mean " << region.snm_stats.mean() << "% (max "
            << region.snm_stats.max() << "%), duty mean "
            << region.duty_stats.mean() << ", optimal "
            << 100.0 * region.fraction_optimal << "%";
      } else {
        out << " (all unused)";
      }
      out << "\n";
    }
  }
  out << snm_histogram.to_string();
  return out.str();
}

namespace {

/// One distinct history's aging outcome: what the in-order fold replays
/// per cell, with the optimal flag decided once per history.
struct CellAging {
  double duty = 0.0;
  double snm = 0.0;
  bool used = false;
  bool optimal = false;
};

}  // namespace

AgingReport make_aging_report(std::span<const EnvironmentSegmentView> segments,
                              const DeviceAgingModel& model,
                              const AgingReportOptions& options) {
  return make_aging_report(segments, HistoryTable(segments), model, options);
}

AgingReport make_aging_report(std::span<const EnvironmentSegmentView> segments,
                              const HistoryTable& histories,
                              const DeviceAgingModel& model,
                              const AgingReportOptions& options) {
  check_segments(segments);
  histories.check_matches(segments);
  const std::span<const std::size_t> firsts = histories.firsts();
  const double years = options.years;
  const double tolerance = options.optimal_tolerance;
  const ReportEvaluator evaluator(options.threads);
  // Every distinct history composes its own pair of timelines: the
  // balanced reference depends on the history's residency weights. The
  // gathered history and its balanced-duty twin are scratch buffers. A
  // one-segment history short-circuits to degradation() inside the model.
  const std::vector<CellAging> values =
      evaluator.evaluate<CellAging>(firsts.size(), [&] {
        return [&, history = std::vector<StressSegment>(),
                balanced = std::vector<StressSegment>()](
                   std::size_t begin, std::size_t end,
                   std::span<CellAging> out) mutable {
          for (std::size_t id = begin; id < end; ++id) {
            const CellResidency residency =
                gather_cell_segments(segments, firsts[id], history);
            if (residency.total == 0) continue;
            const double snm = model.degradation_on_timeline(history, years);
            // The minimum achievable degradation for *this* history:
            // balanced duty under the same environment exposure.
            balanced = history;
            for (StressSegment& segment : balanced) segment.duty = 0.5;
            const double optimal =
                model.degradation_on_timeline(balanced, years);
            out[id - begin] = {static_cast<double>(residency.ones) /
                                   static_cast<double>(residency.total),
                               snm, true, snm <= optimal + tolerance};
          }
        };
      });

  // The in-order fold: Welford adds per used cell, in ascending cell order
  // (the per-cell loop's exact sequence); histogram and optimal/unused
  // tallies are integer counts, order-free and exact.
  const std::vector<CellRegion>& tags = segments.front().tracker->regions();
  AgingReport report{util::Histogram(options.hist_lo, options.hist_hi,
                                     options.hist_bins),
                     {}, {}, histories.cell_count(), 0, 0.0, {}};
  report.regions.reserve(tags.size());
  std::vector<std::uint64_t> occurrences(values.size(), 0);
  std::uint64_t optimal_cells = 0;
  const auto fraction = [](std::uint64_t optimal, std::size_t used) {
    return used == 0 ? 0.0
                     : static_cast<double>(optimal) / static_cast<double>(used);
  };
  for_each_region(histories.cell_count(), tags, [&](std::size_t begin,
                                                    std::size_t end,
                                                    std::size_t r) {
    const bool tagged = r < tags.size();
    // Local accumulators: nothing the occurrence counters alias, so the
    // Welford state can stay in registers.
    util::RunningStats snm = report.snm_stats;
    util::RunningStats duty = report.duty_stats;
    util::RunningStats region_snm;
    util::RunningStats region_duty;
    std::uint64_t optimal = 0;
    std::size_t unused = 0;
    histories.for_each(begin, end, [&](std::size_t, std::uint32_t id) {
      const CellAging& cell = values[id];
      if (!cell.used) {
        ++unused;
        return;
      }
      ++occurrences[id];
      optimal += cell.optimal;
      snm.add(cell.snm);
      duty.add(cell.duty);
      if (tagged) {
        region_snm.add(cell.snm);
        region_duty.add(cell.duty);
      }
    });
    report.snm_stats = snm;
    report.duty_stats = duty;
    report.unused_cells += unused;
    optimal_cells += optimal;
    if (tagged)
      report.regions.push_back(RegionAging{
          tags[r].name, end - begin, unused, region_snm, region_duty,
          fraction(optimal, end - begin - unused)});
  });
  for (std::size_t id = 0; id < values.size(); ++id)
    if (occurrences[id] != 0)
      report.snm_histogram.add(values[id].snm, occurrences[id]);
  report.fraction_optimal =
      fraction(optimal_cells, report.total_cells - report.unused_cells);
  return report;
}

}  // namespace dnnlife::aging
