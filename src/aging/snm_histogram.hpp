// Aggregation of per-cell duty-cycles into the SNM-degradation reports the
// paper's Fig. 9 / Fig. 11 bar graphs show.
#pragma once

#include <string>
#include <vector>

#include <span>

#include "aging/device_model.hpp"
#include "aging/duty_cycle.hpp"
#include "util/histogram.hpp"
#include "util/statistics.hpp"

namespace dnnlife::aging {

class HistoryTable;

/// Aging outcome of one named memory region (see CellRegion): the
/// whole-memory statistics restricted to the region's cell range.
struct RegionAging {
  std::string name;
  std::size_t total_cells = 0;
  std::size_t unused_cells = 0;
  util::RunningStats snm_stats;
  util::RunningStats duty_stats;
  double fraction_optimal = 0.0;
};

/// One evaluated configuration's aging outcome. The means and variances
/// (here and per region) are exact: the count-weighted sums over the
/// distinct histories are summed without rounding and rounded once
/// (util::ExactMoments). The mean is within 1 ulp of the exact mean of
/// the used cells, the variance is the population variance about that
/// rounded mean, and neither depends on cell order, thread count, shard
/// split or history numbering.
struct AgingReport {
  util::Histogram snm_histogram;  ///< % of cells per SNM-degradation bin
  util::RunningStats snm_stats;   ///< over cells (percent units)
  util::RunningStats duty_stats;  ///< over cells
  std::size_t total_cells = 0;
  std::size_t unused_cells = 0;   ///< never written; excluded from stats
  /// Fraction (0..1) of used cells within `optimal_tolerance` percentage
  /// points of the minimum achievable degradation (the paper's "all the
  /// cells experience around 10.8%" criterion).
  double fraction_optimal = 0.0;
  /// Per-region breakdown when the tracker carried region tags (one entry
  /// per tagged region, in cell order; empty for untagged trackers).
  std::vector<RegionAging> regions;

  std::string to_string() const;
};

struct AgingReportOptions {
  double years = 7.0;
  /// Histogram range and bin count over SNM degradation percent.
  double hist_lo = 10.0;
  double hist_hi = 27.0;
  std::size_t hist_bins = 17;
  /// Width of the "optimal" band above the minimum degradation, in
  /// percentage points (~ the width of the paper's lowest histogram bin;
  /// cells here read as "around 10.8%" in Fig. 9/11 terms).
  double optimal_tolerance = 2.0;
  /// Report-evaluation budget on the session executor (0 = hardware
  /// concurrency). Results are bit-identical for any value: the model is
  /// evaluated once per distinct cell history of the whole state, and the
  /// statistics fold over per-region history counts with exact sums (see
  /// aging/report_evaluator.hpp).
  unsigned threads = 1;
};

/// Evaluate every used cell of the environment timeline `segments` under
/// `model`. Each cell's degradation is the model's composition over its
/// per-segment stress history (see DeviceAgingModel::
/// degradation_on_timeline), and its "optimal" reference is a duty-0.5
/// cell with the same segment weights and environments. A single tracker
/// is a one-segment timeline: `EnvironmentSegmentView{&tracker, env}`
/// evaluates every cell at its tracker duty in the fixed environment
/// `env`. Owned segments borrow through segment_views(); views of shared
/// (cached) tracker state fold to byte-identical reports. Builds the
/// state's HistoryTable and calls the overload below.
AgingReport make_aging_report(std::span<const EnvironmentSegmentView> segments,
                              const DeviceAgingModel& model,
                              const AgingReportOptions& options = {});

/// The same report over a prebuilt history table of `segments` (see
/// aging/report_evaluator.hpp), so that one table serves both reports of
/// a point.
AgingReport make_aging_report(std::span<const EnvironmentSegmentView> segments,
                              const HistoryTable& histories,
                              const DeviceAgingModel& model,
                              const AgingReportOptions& options = {});

}  // namespace dnnlife::aging
