#include "aging/lifetime.hpp"

#include <sstream>
#include <stdexcept>

#include "aging/report_evaluator.hpp"

namespace dnnlife::aging {

LifetimeModel::LifetimeModel(SnmParams snm, LifetimeParams params)
    : model_(std::make_shared<CalibratedNbtiDeviceModel>(snm)),
      params_(params) {
  validate_threshold();
}

LifetimeModel::LifetimeModel(std::shared_ptr<const DeviceAgingModel> model,
                             LifetimeParams params)
    : model_(std::move(model)), params_(params) {
  DNNLIFE_EXPECTS(model_ != nullptr, "lifetime model needs a device model");
  validate_threshold();
}

void LifetimeModel::validate_threshold() const {
  // The actionable form of the header's constraint: compare against the
  // model's *actual* balanced-duty degradation at its reference horizon,
  // not just the calibration parameter (composite models like dual-bti
  // degrade faster than their NBTI anchor alone).
  const double anchor =
      model_->degradation(0.5, model_->reference_years(), EnvironmentSpec{});
  if (params_.snm_failure_threshold > anchor) return;
  std::ostringstream message;
  message.precision(4);
  message << "LifetimeParams::snm_failure_threshold ("
          << params_.snm_failure_threshold
          << "%) must exceed the balanced-duty degradation of model '"
          << model_->name() << "' at its reference horizon (" << anchor
          << "% at duty 0.5, t = " << model_->reference_years()
          << " years): even a perfectly balanced memory would be dead "
             "before t_ref. Raise the threshold or soften the model's "
             "calibration anchors.";
  throw std::invalid_argument(message.str());
}

double LifetimeModel::years_to_failure(double duty) const {
  return years_to_failure(duty, EnvironmentSpec{});
}

double LifetimeModel::years_to_failure(double duty,
                                       const EnvironmentSpec& env) const {
  return model_->years_to_reach(duty, params_.snm_failure_threshold, env);
}

double LifetimeModel::years_to_failure(
    std::span<const StressSegment> timeline) const {
  return model_->years_to_failure(timeline, params_.snm_failure_threshold);
}

namespace {

/// Min/stats accumulation shared by the single-segment and the
/// multi-segment timeline paths: the two differ only in how a cell's
/// years-to-failure is produced.
class LifetimeBuilder {
 public:
  LifetimeBuilder(const std::vector<CellRegion>& tags,
                  const LifetimeModel& model)
      : model_(model), tags_(tags) {
    report_.regions.reserve(tags.size());
    for (const CellRegion& tag : tags)
      report_.regions.push_back(RegionLifetime{tag.name, 0.0, {}});
  }

  /// Cells must be visited in order.
  void add_cell(std::size_t cell, double years) {
    while (region_ < tags_.size() && cell >= tags_[region_].cell_end)
      ++region_;
    report_.cell_lifetime.add(years);
    if (first_ || years < report_.device_lifetime_years) {
      report_.device_lifetime_years = years;
      first_ = false;
    }
    if (region_ < tags_.size()) {
      RegionLifetime& breakdown = report_.regions[region_];
      if (breakdown.cell_lifetime.count() == 0 ||
          years < breakdown.device_lifetime_years)
        breakdown.device_lifetime_years = years;
      breakdown.cell_lifetime.add(years);
    }
  }

  LifetimeReport finish() {
    DNNLIFE_EXPECTS(!first_, "no used cells in tracker");
    report_.improvement_over_worst_case =
        report_.device_lifetime_years / model_.worst_case_years();
    report_.fraction_of_ideal =
        report_.device_lifetime_years / model_.best_case_years();
    return std::move(report_);
  }

 private:
  const LifetimeModel& model_;
  const std::vector<CellRegion>& tags_;
  LifetimeReport report_;
  bool first_ = true;
  std::size_t region_ = 0;
};

/// Per-history lifetime solve result, buffered per block between the
/// parallel evaluation and the in-order min/stats fold.
struct CellLifetime {
  double years = 0.0;
  bool used = false;
};

/// Blocked evaluation state of the single-operating-point lifetime solve:
/// gather the duties of the block's distinct used histories, run the
/// batched inversion (hoisted model constants per block), scatter back.
/// years_to_reach_batch is bit-identical to the per-cell solver, so this
/// changes no report value.
struct BatchedLifetimeEval {
  std::span<const EnvironmentSegmentView> segment;
  const DeviceAgingModel& device;
  double threshold;
  BlockHistories histories;
  std::vector<double> duties;
  std::vector<double> years;

  void operator()(std::size_t begin, std::size_t end,
                  BlockValues<CellLifetime>& out) {
    const DutyCycleTracker& tracker = *segment.front().tracker;
    const std::span<const std::size_t> firsts =
        histories.scan(segment, begin, end, out.index);
    duties.clear();
    for (const std::size_t cell : firsts)
      if (!tracker.is_unused(cell)) duties.push_back(tracker.duty(cell));
    years.resize(duties.size());
    device.years_to_reach_batch(duties, threshold, segment.front().environment,
                                years);
    std::size_t next = 0;
    for (const std::size_t cell : firsts) {
      out.values.push_back(tracker.is_unused(cell)
                               ? CellLifetime{}
                               : CellLifetime{years[next++], true});
    }
  }
};

/// Blocked evaluation state of the multi-segment timeline solve: one
/// years_to_failure per distinct history of the block; the gathered
/// stress history is scratch reused across the block's histories.
struct TimelineLifetimeEval {
  std::span<const EnvironmentSegmentView> segments;
  const LifetimeModel& model;
  BlockHistories histories;
  std::vector<StressSegment> history;

  void operator()(std::size_t begin, std::size_t end,
                  BlockValues<CellLifetime>& out) {
    for (const std::size_t cell :
         histories.scan(segments, begin, end, out.index)) {
      out.values.push_back(
          gather_cell_segments(segments, cell, history).total == 0
              ? CellLifetime{}
              : CellLifetime{model.years_to_failure(history), true});
    }
  }
};

}  // namespace

LifetimeReport make_lifetime_report(
    std::span<const EnvironmentSegmentView> segments, const LifetimeModel& model,
    unsigned threads) {
  check_segments(segments);
  const DutyCycleTracker& first = *segments.front().tracker;
  LifetimeBuilder builder(first.regions(), model);
  const auto fold = [&builder](std::size_t cell, const CellLifetime& value) {
    if (value.used) builder.add_cell(cell, value.years);
  };
  const ReportEvaluator evaluator(threads);
  if (segments.size() == 1) {
    // A one-segment timeline is the single-operating-point solve (the
    // same shortcut DeviceAgingModel::years_to_failure takes per cell,
    // since each used cell's gathered history is exactly one
    // positive-weight segment at the tracker duty) — take the batched
    // path.
    evaluator.run_blocks<CellLifetime>(
        first.cell_count(),
        [&] {
          return BatchedLifetimeEval{
              segments, model.model(), model.params().snm_failure_threshold,
              {},       {},            {}};
        },
        fold);
  } else {
    evaluator.run_blocks<CellLifetime>(
        first.cell_count(),
        [&] { return TimelineLifetimeEval{segments, model, {}, {}}; }, fold);
  }
  return builder.finish();
}

}  // namespace dnnlife::aging
