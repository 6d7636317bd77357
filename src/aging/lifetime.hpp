// Lifetime estimation: the paper's title metric.
//
// A cell is considered failed once its SNM degradation crosses a
// threshold (read-stability margin exhausted). The years-to-failure
// inversion is owned by the DeviceAgingModel strategy — for the default
// calibrated power law  snm(d, t) = S_max * s^alpha * (t/t_ref)^beta  it
// is the closed form
//
//     t_fail(d) = t_ref * (threshold / (S_max * s^alpha))^(1/beta)
//
// and for cells whose lifetime spans several environments the model
// integrates degradation across the piecewise-constant timeline. The
// memory fails with its first cell (no spare rows modelled), so the
// device lifetime is the minimum over cells — which is exactly what
// balancing the worst cell's duty-cycle maximises.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aging/device_model.hpp"
#include "aging/duty_cycle.hpp"
#include "util/statistics.hpp"

namespace dnnlife::aging {

class HistoryTable;

struct LifetimeParams {
  /// SNM degradation (percent) at which a cell is considered failed.
  /// Must exceed the model's degradation-at-balanced anchor at t_ref,
  /// otherwise even a perfect memory would be "dead" before t_ref —
  /// LifetimeModel enforces this at construction.
  double snm_failure_threshold = 20.0;
};

/// Binds a failure threshold to a device-aging model. Shares the model,
/// so one registry-created instance can serve report evaluation and many
/// lifetime solvers.
class LifetimeModel {
 public:
  /// The default engine (calibrated NBTI/SNM chain) — identical numbers
  /// to the pre-registry implementation.
  explicit LifetimeModel(SnmParams snm = {}, LifetimeParams params = {});

  /// Any device model (typically from the AgingModelRegistry).
  explicit LifetimeModel(std::shared_ptr<const DeviceAgingModel> model,
                         LifetimeParams params = {});

  /// Years until a cell at lifetime duty-cycle `duty` crosses the
  /// failure threshold, in the nominal environment.
  double years_to_failure(double duty) const;
  /// Same, in a fixed environment.
  double years_to_failure(double duty, const EnvironmentSpec& env) const;
  /// Same, for a cell whose stress history is a piecewise-constant
  /// environment timeline.
  double years_to_failure(std::span<const StressSegment> timeline) const;

  /// The theoretical maximum (all cells at duty 0.5, nominal environment).
  double best_case_years() const { return years_to_failure(0.5); }
  /// The worst case (a cell stuck at duty 0 or 1).
  double worst_case_years() const { return years_to_failure(1.0); }

  const DeviceAgingModel& model() const noexcept { return *model_; }
  const LifetimeParams& params() const noexcept { return params_; }

 private:
  void validate_threshold() const;

  std::shared_ptr<const DeviceAgingModel> model_;
  LifetimeParams params_;
};

/// Lifetime outcome of one named memory region: the whole-memory numbers
/// restricted to the region's cell range.
struct RegionLifetime {
  std::string name;
  /// Min over the region's used cells; 0 when the region is all unused.
  double device_lifetime_years = 0.0;
  util::RunningStats cell_lifetime;
};

/// Mean and variance of `cell_lifetime` (and of each region's) are exact:
/// the count-weighted sums over the distinct histories are summed without
/// rounding and rounded once (util::ExactMoments), so they do not depend
/// on cell order, thread count, shard split or history numbering, and the
/// mean is within 1 ulp of exact. A used cell that never reaches the
/// failure threshold (e.g. never stressed) has a `+inf` lifetime. Those
/// cells stay out of the sums and are counted in `never_failing_cells`;
/// when there is at least one, the mean and the variance are `+inf` (and
/// so is the device lifetime when every used cell is such a cell), never
/// NaN.
struct LifetimeReport {
  double device_lifetime_years = 0.0;  ///< min over used cells
  util::RunningStats cell_lifetime;    ///< distribution over used cells
  /// Used cells whose lifetime is `+inf`.
  std::size_t never_failing_cells = 0;
  /// device lifetime / worst-case (duty 0/1, nominal environment) lifetime.
  double improvement_over_worst_case = 0.0;
  /// device lifetime / best-case (duty 0.5, *nominal* environment)
  /// lifetime. In (0, 1] for nominal timelines; can exceed 1 when the
  /// actual environment ages milder than the calibration point (e.g. an
  /// always-cool Arrhenius timeline or power-gated phases).
  double fraction_of_ideal = 0.0;
  /// Per-region breakdown when the tracker carried region tags (one entry
  /// per tagged region, in cell order; empty for untagged trackers).
  std::vector<RegionLifetime> regions;
};

/// Evaluate every used cell of the environment timeline `segments`: each
/// cell's lifetime is the model's years-to-failure over its per-segment
/// stress history. A single tracker is a one-segment timeline
/// (`EnvironmentSegmentView{&tracker, env}`, solved at the tracker duty in
/// `env`); owned segments borrow through segment_views(). Each distinct
/// stress history of the whole state is solved once, and `threads` is the
/// concurrency budget of those solves on the session executor (0 =
/// hardware concurrency); results are bit-identical for any value (see
/// aging/report_evaluator.hpp). Builds the state's HistoryTable and calls
/// the overload below.
LifetimeReport make_lifetime_report(
    std::span<const EnvironmentSegmentView> segments,
    const LifetimeModel& model, unsigned threads = 1);

/// The same report over a prebuilt history table of `segments`.
LifetimeReport make_lifetime_report(
    std::span<const EnvironmentSegmentView> segments,
    const HistoryTable& histories, const LifetimeModel& model,
    unsigned threads = 1);

}  // namespace dnnlife::aging
