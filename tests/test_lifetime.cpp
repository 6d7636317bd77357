// Tests for the lifetime model (paper title metric) and the combined
// NBTI+PBTI extension model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "aging/lifetime.hpp"
#include "aging/model_registry.hpp"

namespace dnnlife::aging {
namespace {

TEST(LifetimeModel, ThresholdCrossingsMatchSnmModel) {
  const LifetimeModel model;
  const CalibratedNbtiDeviceModel snm;
  for (double duty : {0.5, 0.6, 0.8, 1.0}) {
    const double years = model.years_to_failure(duty);
    // At the failure time, the SNM degradation equals the threshold.
    EXPECT_NEAR(snm.degradation(duty, years, {}),
                model.params().snm_failure_threshold, 1e-9)
        << "duty " << duty;
  }
}

TEST(LifetimeModel, BalancedDutyMaximisesLifetime) {
  const LifetimeModel model;
  const double best = model.best_case_years();
  for (int step = 0; step <= 20; ++step)
    EXPECT_LE(model.years_to_failure(0.05 * step), best + 1e-9);
  EXPECT_GT(best, model.worst_case_years());
}

TEST(LifetimeModel, PowerLawImprovementFactor) {
  // t(0.5)/t(1.0) = (26.12/10.82)^(1/beta) with beta = 1/6.
  const LifetimeModel model;
  const double expected = std::pow(26.12 / 10.82, 6.0);
  EXPECT_NEAR(model.best_case_years() / model.worst_case_years(), expected,
              expected * 1e-9);
}

TEST(LifetimeModel, RejectsUnreachableThreshold) {
  LifetimeParams params;
  params.snm_failure_threshold = 5.0;  // below the balanced anchor
  EXPECT_THROW(LifetimeModel(SnmParams{}, params), std::invalid_argument);
  // The rejection is actionable: it names the parameter, the model and
  // the anchor it must exceed.
  try {
    LifetimeModel model(SnmParams{}, params);
    FAIL() << "unreachable threshold accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("snm_failure_threshold"), std::string::npos);
    EXPECT_NE(message.find("calibrated-nbti"), std::string::npos);
    EXPECT_NE(message.find("duty 0.5"), std::string::npos);
  }
}

TEST(LifetimeReport, DeviceDiesWithFirstCell) {
  DutyCycleTracker tracker(3);
  tracker.add_total_time(0, 10);
  tracker.add_ones_time(0, 5);  // balanced
  tracker.add_total_time(1, 10);
  tracker.add_ones_time(1, 9);  // duty 0.9
  // cell 2 unused.
  const LifetimeModel model;
  const EnvironmentSegmentView segment{&tracker, {}};
  const auto report = make_lifetime_report({&segment, 1}, model);
  EXPECT_NEAR(report.device_lifetime_years, model.years_to_failure(0.9), 1e-9);
  EXPECT_EQ(report.cell_lifetime.count(), 2u);
  EXPECT_GT(report.improvement_over_worst_case, 1.0);
  EXPECT_LT(report.fraction_of_ideal, 1.0);
}

TEST(LifetimeReport, AllBalancedReachesIdeal) {
  DutyCycleTracker tracker(4);
  for (std::size_t cell = 0; cell < 4; ++cell) {
    tracker.add_total_time(cell, 8);
    tracker.add_ones_time(cell, 4);
  }
  const LifetimeModel model;
  const EnvironmentSegmentView segment{&tracker, {}};
  const auto report = make_lifetime_report({&segment, 1}, model);
  EXPECT_NEAR(report.fraction_of_ideal, 1.0, 1e-12);
}

TEST(LifetimeReport, RejectsEmptyTracker) {
  DutyCycleTracker tracker(2);
  const EnvironmentSegmentView segment{&tracker, {}};
  EXPECT_THROW(make_lifetime_report({&segment, 1}, LifetimeModel{}),
               std::invalid_argument);
}

TEST(LifetimeReport, NeverFailingCellsMakeTheMeanInfiniteNotNan) {
  // Cells written only during a fully power-gated segment are used but
  // never stressed: an infinite lifetime. One, some and all of them.
  const LifetimeModel model(make_aging_model("arrhenius-nbti"));
  EnvironmentSpec gated;
  gated.activity_scale = 0.0;
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t never_failing : {1u, 3u, 6u}) {
    DutyCycleTracker off(6);
    DutyCycleTracker on(6);
    for (std::size_t cell = 0; cell < 6; ++cell) {
      off.add_total_time(cell, 10);
      off.add_ones_time(cell, cell);
      if (cell >= never_failing) {
        on.add_total_time(cell, 10);
        on.add_ones_time(cell, 9);
      }
    }
    off.set_regions({CellRegion{"gated-only", 0, 1}, CellRegion{"rest", 1, 6}});
    on.set_regions(off.regions());
    const std::vector<EnvironmentSegmentView> segments = {{&off, gated},
                                                          {&on, {}}};
    const LifetimeReport report = make_lifetime_report(segments, model);
    const std::string what = std::to_string(never_failing) + " never failing";
    EXPECT_EQ(report.never_failing_cells, never_failing) << what;
    EXPECT_EQ(report.cell_lifetime.count(), 6u) << what;
    EXPECT_EQ(report.cell_lifetime.mean(), inf) << what;
    EXPECT_EQ(report.cell_lifetime.variance(), inf) << what;
    EXPECT_EQ(report.cell_lifetime.max(), inf) << what;
    EXPECT_EQ(report.regions[0].device_lifetime_years, inf) << what;
    EXPECT_EQ(report.regions[0].cell_lifetime.mean(), inf) << what;
    if (never_failing < 6) {
      EXPECT_TRUE(std::isfinite(report.device_lifetime_years)) << what;
      EXPECT_EQ(report.device_lifetime_years, report.cell_lifetime.min());
    } else {
      EXPECT_EQ(report.device_lifetime_years, inf);
      EXPECT_EQ(report.fraction_of_ideal, inf);
    }
    if (never_failing == 1) {
      // The region without such cells keeps finite, exact moments.
      EXPECT_TRUE(std::isfinite(report.regions[1].cell_lifetime.mean()));
      EXPECT_TRUE(std::isfinite(report.regions[1].cell_lifetime.variance()));
    }
  }
}

// ---- dual BTI ---------------------------------------------------------------

TEST(DualBti, SymmetricAroundHalf) {
  const DualBtiDeviceModel model;
  for (double d : {0.0, 0.2, 0.35}) {
    EXPECT_NEAR(model.degradation(d, 7.0, {}),
                model.degradation(1.0 - d, 7.0, {}), 1e-12);
  }
}

TEST(DualBti, MinimumAtBalancedDuty) {
  const DualBtiDeviceModel model;
  const double at_half = model.degradation(0.5, 7.0, {});
  for (int step = 0; step <= 20; ++step)
    EXPECT_GE(model.degradation(0.05 * step, 7.0, {}), at_half - 1e-12);
}

TEST(DualBti, ZeroPbtiReducesToNbti) {
  DualBtiDeviceModel::Params params;
  params.pbti_ratio = 0.0;
  const DualBtiDeviceModel dual(params);
  const CalibratedNbtiDeviceModel nbti;
  for (int step = 0; step <= 10; ++step) {
    const double d = 0.1 * step;
    EXPECT_NEAR(dual.degradation(d, 7.0, {}), nbti.degradation(d, 7.0, {}),
                1e-9);
  }
}

TEST(DualBti, PbtiFlattensDutyContrast) {
  // PBTI stresses the complementary transistor, so adding it narrows the
  // gap between worst-case and balanced aging.
  DualBtiDeviceModel::Params with_pbti;
  with_pbti.pbti_ratio = 0.5;
  const DualBtiDeviceModel dual(with_pbti);
  const CalibratedNbtiDeviceModel nbti_only;
  const double contrast_dual =
      dual.degradation(1.0, 7.0, {}) / dual.degradation(0.5, 7.0, {});
  const double contrast_nbti =
      nbti_only.degradation(1.0, 7.0, {}) / nbti_only.degradation(0.5, 7.0, {});
  EXPECT_LT(contrast_dual, contrast_nbti);
  EXPECT_GT(contrast_dual, 1.0);  // duty still matters
}

TEST(DualBti, FullStressAnchorPreserved) {
  // At duty 1 the stressed inverter sees NBTI only, so the anchor holds.
  const DualBtiDeviceModel model;
  EXPECT_NEAR(model.degradation(1.0, 7.0, {}), 26.12, 1e-9);
}

TEST(DualBti, RejectsBadRatio) {
  DualBtiDeviceModel::Params params;
  params.pbti_ratio = 1.5;
  EXPECT_THROW(DualBtiDeviceModel{params}, std::invalid_argument);
}

}  // namespace
}  // namespace dnnlife::aging
