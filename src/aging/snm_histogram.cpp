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

/// Single-pass report bookkeeping shared by the single-segment and the
/// multi-segment timeline paths: region tags are a sorted partition of
/// the cells, so the per-region breakdown fills in the same pass that
/// accumulates the whole-memory statistics. The two paths differ only in
/// how a cell's (duty, snm, optimal-reference) triple is produced.
class ReportBuilder {
 public:
  ReportBuilder(std::size_t cell_count, const std::vector<CellRegion>& tags,
                const AgingReportOptions& options)
      : report_{util::Histogram(options.hist_lo, options.hist_hi,
                                options.hist_bins),
                {}, {}, cell_count, 0, 0.0, {}},
        options_(options), tags_(tags),
        region_optimal_(tags.size(), 0), region_used_(tags.size(), 0) {
    report_.regions.reserve(tags.size());
    for (const CellRegion& tag : tags)
      report_.regions.push_back(RegionAging{
          tag.name, static_cast<std::size_t>(tag.cell_end - tag.cell_begin), 0,
          {}, {}, 0.0});
  }

  /// Cells must be visited in order, exactly once each.
  void add_unused(std::size_t cell) {
    advance_region(cell);
    ++report_.unused_cells;
    if (region_ < tags_.size()) ++report_.regions[region_].unused_cells;
  }

  void add_cell(std::size_t cell, double duty, double snm, double optimal) {
    advance_region(cell);
    ++used_;
    report_.snm_histogram.add(snm);
    report_.snm_stats.add(snm);
    report_.duty_stats.add(duty);
    const bool is_optimal = snm <= optimal + options_.optimal_tolerance;
    if (is_optimal) ++optimal_cells_;
    if (region_ < tags_.size()) {
      RegionAging& breakdown = report_.regions[region_];
      breakdown.snm_stats.add(snm);
      breakdown.duty_stats.add(duty);
      ++region_used_[region_];
      if (is_optimal) ++region_optimal_[region_];
    }
  }

  AgingReport finish() {
    report_.fraction_optimal =
        used_ == 0 ? 0.0
                   : static_cast<double>(optimal_cells_) /
                         static_cast<double>(used_);
    for (std::size_t r = 0; r < report_.regions.size(); ++r) {
      report_.regions[r].fraction_optimal =
          region_used_[r] == 0 ? 0.0
                               : static_cast<double>(region_optimal_[r]) /
                                     static_cast<double>(region_used_[r]);
    }
    return std::move(report_);
  }

 private:
  void advance_region(std::size_t cell) {
    while (region_ < tags_.size() && cell >= tags_[region_].cell_end)
      ++region_;
  }

  AgingReport report_;
  AgingReportOptions options_;
  const std::vector<CellRegion>& tags_;
  std::vector<std::uint64_t> region_optimal_;
  std::vector<std::uint64_t> region_used_;
  std::uint64_t optimal_cells_ = 0;
  std::uint64_t used_ = 0;
  std::size_t region_ = 0;
};

/// Per-history evaluation result, buffered per block between the parallel
/// evaluation and the in-order accumulation fold.
struct CellAging {
  double duty = 0.0;
  double snm = 0.0;
  double optimal = 0.0;
  bool used = false;
};

/// Blocked evaluation state of the single-operating-point aging report:
/// gather the duties of the block's distinct used histories, run the
/// batched forward curve (hoisted time powers per block), scatter back.
/// degradation_batch is bit-identical to the per-cell calls, so this
/// changes no report value.
struct BatchedAgingEval {
  std::span<const EnvironmentSegmentView> segment;
  const DeviceAgingModel& model;
  double years;
  double optimal;
  BlockHistories histories;
  std::vector<double> duties;
  std::vector<double> snm;

  void operator()(std::size_t begin, std::size_t end,
                  BlockValues<CellAging>& out) {
    const DutyCycleTracker& tracker = *segment.front().tracker;
    const std::span<const std::size_t> firsts =
        histories.scan(segment, begin, end, out.index);
    duties.clear();
    for (const std::size_t cell : firsts)
      if (!tracker.is_unused(cell)) duties.push_back(tracker.duty(cell));
    snm.resize(duties.size());
    model.degradation_batch(duties, years, segment.front().environment, snm);
    std::size_t next = 0;
    for (const std::size_t cell : firsts) {
      if (tracker.is_unused(cell)) {
        out.values.emplace_back();
      } else {
        out.values.push_back({duties[next], snm[next], optimal, true});
        ++next;
      }
    }
  }
};

/// Blocked evaluation state of the multi-segment timeline report. The
/// balanced reference depends on each cell's residency weights, so every
/// distinct history composes its own pair of timelines; the gathered
/// stress history and its balanced-duty twin are scratch buffers reused
/// across the block's histories.
struct TimelineAgingEval {
  std::span<const EnvironmentSegmentView> segments;
  const DeviceAgingModel& model;
  double years;
  BlockHistories histories;
  std::vector<StressSegment> history;
  std::vector<StressSegment> balanced;

  void operator()(std::size_t begin, std::size_t end,
                  BlockValues<CellAging>& out) {
    for (const std::size_t cell :
         histories.scan(segments, begin, end, out.index)) {
      const CellResidency residency =
          gather_cell_segments(segments, cell, history);
      if (residency.total == 0) {
        out.values.emplace_back();
        continue;
      }
      const double duty = static_cast<double>(residency.ones) /
                          static_cast<double>(residency.total);
      const double snm = model.degradation_on_timeline(history, years);
      // The minimum achievable degradation for *this* history: balanced
      // duty under the same environment exposure.
      balanced = history;
      for (StressSegment& segment : balanced) segment.duty = 0.5;
      const double optimal = model.degradation_on_timeline(balanced, years);
      out.values.push_back({duty, snm, optimal, true});
    }
  }
};

}  // namespace

AgingReport make_aging_report(std::span<const EnvironmentSegmentView> segments,
                              const DeviceAgingModel& model,
                              const AgingReportOptions& options) {
  check_segments(segments);
  const DutyCycleTracker& first = *segments.front().tracker;
  ReportBuilder builder(first.cell_count(), first.regions(), options);
  const auto fold = [&builder](std::size_t cell, const CellAging& value) {
    if (value.used)
      builder.add_cell(cell, value.duty, value.snm, value.optimal);
    else
      builder.add_unused(cell);
  };
  const ReportEvaluator evaluator(options.threads);
  if (segments.size() == 1) {
    // One segment is the single-operating-point evaluation under that
    // segment's environment (a used cell's gathered history is exactly
    // one segment at the tracker duty, and degradation_on_timeline
    // short-circuits it to degradation(), bit-identically) — take the
    // batched path.
    const double optimal =
        model.degradation(0.5, options.years, segments.front().environment);
    evaluator.run_blocks<CellAging>(
        first.cell_count(),
        [&] {
          return BatchedAgingEval{segments, model, options.years, optimal,
                                  {},       {},    {}};
        },
        fold);
  } else {
    evaluator.run_blocks<CellAging>(
        first.cell_count(),
        [&] {
          return TimelineAgingEval{segments, model, options.years, {}, {}, {}};
        },
        fold);
  }
  return builder.finish();
}

}  // namespace dnnlife::aging
