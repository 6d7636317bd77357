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

/// One distinct history's lifetime, replayed per cell by the fold.
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

  // The in-order fold: one unit-weight Welford add per used cell and
  // region, in ascending cell order. A RunningStats min is the running
  // `value < min` replacement, so it is the device (and region) lifetime.
  const std::vector<CellRegion>& tags = segments.front().tracker->regions();
  LifetimeReport report;
  report.regions.reserve(tags.size());
  for_each_region(histories.cell_count(), tags, [&](std::size_t begin,
                                                    std::size_t end,
                                                    std::size_t r) {
    // Local accumulators, so the Welford state can stay in registers.
    util::RunningStats cells = report.cell_lifetime;
    util::RunningStats region_cells;
    const bool tagged = r < tags.size();
    histories.for_each(begin, end, [&](std::size_t, std::uint32_t id) {
      const CellLifetime& cell = values[id];
      if (!cell.used) return;
      cells.add(cell.years);
      if (tagged) region_cells.add(cell.years);
    });
    report.cell_lifetime = cells;
    if (tagged)
      report.regions.push_back(RegionLifetime{
          tags[r].name,
          region_cells.count() == 0 ? 0.0 : region_cells.min(),
          region_cells});
  });
  DNNLIFE_EXPECTS(report.cell_lifetime.count() != 0,
                  "no used cells in tracker");
  report.device_lifetime_years = report.cell_lifetime.min();
  report.improvement_over_worst_case =
      report.device_lifetime_years / model.worst_case_years();
  report.fraction_of_ideal =
      report.device_lifetime_years / model.best_case_years();
  return report;
}

}  // namespace dnnlife::aging
