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

/// One distinct history's aging outcome, with the optimal flag decided
/// once per history.
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

  // The tally fold: each region's (history, cell count) pairs feed exact,
  // order-free moments (util::ExactMoments), and the whole memory's are
  // the exact sum over the regions; histogram and optimal/unused tallies
  // are integer counts.
  const std::vector<CellRegion>& tags = segments.front().tracker->regions();
  AgingReport report{util::Histogram(options.hist_lo, options.hist_hi,
                                     options.hist_bins),
                     {}, {}, histories.cell_count(), 0, 0.0, {}};
  report.regions.reserve(tags.size());
  util::ExactMoments snm;
  util::ExactMoments duty;
  std::uint64_t optimal_cells = 0;
  const auto fraction = [](std::uint64_t optimal, std::uint64_t used) {
    return used == 0 ? 0.0
                     : static_cast<double>(optimal) / static_cast<double>(used);
  };
  for (std::size_t r = 0; r < histories.region_count(); ++r) {
    util::ExactMoments region_snm;
    util::ExactMoments region_duty;
    std::uint64_t optimal = 0;
    std::uint64_t unused = 0;
    for (const HistoryTable::Tally& tally : histories.tallies(r)) {
      const CellAging& cell = values[tally.id];
      if (!cell.used) {
        unused += tally.cells;
        continue;
      }
      if (cell.optimal) optimal += tally.cells;
      report.snm_histogram.add(cell.snm, tally.cells);
      region_snm.add(cell.snm, tally.cells);
      region_duty.add(cell.duty, tally.cells);
    }
    snm.add(region_snm);
    duty.add(region_duty);
    report.unused_cells += unused;
    optimal_cells += optimal;
    if (r < tags.size())
      report.regions.push_back(RegionAging{
          tags[r].name, unused + region_snm.count(), unused,
          region_snm.stats(), region_duty.stats(),
          fraction(optimal, region_snm.count())});
  }
  report.snm_stats = snm.stats();
  report.duty_stats = duty.stats();
  report.fraction_optimal =
      fraction(optimal_cells, report.total_cells - report.unused_cells);
  return report;
}

}  // namespace dnnlife::aging
