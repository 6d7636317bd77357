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

/// One distinct history's lifetime.
struct CellLifetime {
  double years = 0.0;
  bool used = false;
};

}  // namespace

LifetimeReport make_lifetime_report(
    std::span<const EnvironmentSegmentView> segments, const LifetimeModel& model,
    unsigned threads) {
  return make_lifetime_report(segments, HistoryTable(segments), model, threads);
}

LifetimeReport make_lifetime_report(
    std::span<const EnvironmentSegmentView> segments,
    const HistoryTable& histories, const LifetimeModel& model,
    unsigned threads) {
  check_segments(segments);
  histories.check_matches(segments);
  const std::span<const std::size_t> firsts = histories.firsts();
  const ReportEvaluator evaluator(threads);
  // One years_to_failure per distinct history; the gathered stress history
  // is a scratch buffer. A one-segment history short-circuits to the
  // single-operating-point solve inside the model.
  const std::vector<CellLifetime> values =
      evaluator.evaluate<CellLifetime>(firsts.size(), [&] {
        return [&, history = std::vector<StressSegment>()](
                   std::size_t begin, std::size_t end,
                   std::span<CellLifetime> out) mutable {
          for (std::size_t id = begin; id < end; ++id)
            if (gather_cell_segments(segments, firsts[id], history).total != 0)
              out[id - begin] = {model.years_to_failure(history), true};
        };
      });

  // The tally fold: each region's (history, cell count) pairs feed exact,
  // order-free moments, and the whole memory's are the exact sum over the
  // regions. Their min is the device (and region) lifetime.
  const std::vector<CellRegion>& tags = segments.front().tracker->regions();
  LifetimeReport report;
  report.regions.reserve(tags.size());
  util::ExactMoments cells;
  for (std::size_t r = 0; r < histories.region_count(); ++r) {
    util::ExactMoments region_cells;
    for (const HistoryTable::Tally& tally : histories.tallies(r))
      if (values[tally.id].used)
        region_cells.add(values[tally.id].years, tally.cells);
    cells.add(region_cells);
    if (r < tags.size()) {
      const util::RunningStats stats = region_cells.stats();
      report.regions.push_back(RegionLifetime{
          tags[r].name, stats.count() == 0 ? 0.0 : stats.min(), stats});
    }
  }
  DNNLIFE_EXPECTS(cells.count() != 0, "no used cells in tracker");
  report.cell_lifetime = cells.stats();
  report.never_failing_cells = cells.infinite_count();
  report.device_lifetime_years = report.cell_lifetime.min();
  report.improvement_over_worst_case =
      report.device_lifetime_years / model.worst_case_years();
  report.fraction_of_ideal =
      report.device_lifetime_years / model.best_case_years();
  return report;
}

}  // namespace dnnlife::aging
