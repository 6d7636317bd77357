// Tests for duty-cycle tracking and the NBTI / SNM aging models.
#include <gtest/gtest.h>

#include "aging/device_model.hpp"
#include "aging/duty_cycle.hpp"
#include "aging/nbti_model.hpp"
#include "aging/snm_histogram.hpp"

namespace dnnlife::aging {
namespace {

TEST(DutyCycleTracker, BasicAccounting) {
  DutyCycleTracker tracker(4);
  tracker.add_total_time(0, 10);
  tracker.add_ones_time(0, 5);
  EXPECT_DOUBLE_EQ(tracker.duty(0), 0.5);
  EXPECT_FALSE(tracker.is_unused(0));
  EXPECT_TRUE(tracker.is_unused(1));
  EXPECT_EQ(tracker.unused_cell_count(), 3u);
}

TEST(DutyCycleTracker, DutyOfUnusedCellThrows) {
  DutyCycleTracker tracker(1);
  EXPECT_THROW(tracker.duty(0), std::invalid_argument);
}

TEST(NbtiModel, NoStressNoShift) {
  NbtiModel model;
  EXPECT_DOUBLE_EQ(model.vth_shift(0.0, 7.0), 0.0);
  EXPECT_DOUBLE_EQ(model.vth_shift(0.5, 0.0), 0.0);
}

TEST(NbtiModel, ShiftGrowsWithStressAndTime) {
  NbtiModel model;
  EXPECT_LT(model.vth_shift(0.5, 7.0), model.vth_shift(1.0, 7.0));
  EXPECT_LT(model.vth_shift(0.5, 1.0), model.vth_shift(0.5, 7.0));
}

TEST(NbtiModel, SubLinearTimeExponent) {
  NbtiModel model;  // beta = 1/6
  const double t1 = model.vth_shift(1.0, 1.0);
  const double t64 = model.vth_shift(1.0, 64.0);
  // 64^(1/6) = 2.
  EXPECT_NEAR(t64 / t1, 2.0, 1e-9);
}

TEST(NbtiModel, CellStressRatioFoldsDuty) {
  EXPECT_DOUBLE_EQ(NbtiModel::cell_stress_ratio(0.5), 0.5);
  EXPECT_DOUBLE_EQ(NbtiModel::cell_stress_ratio(0.0), 1.0);
  EXPECT_DOUBLE_EQ(NbtiModel::cell_stress_ratio(1.0), 1.0);
  EXPECT_DOUBLE_EQ(NbtiModel::cell_stress_ratio(0.3),
                   NbtiModel::cell_stress_ratio(0.7));
}

TEST(NbtiModel, RejectsBadInput) {
  NbtiModel model;
  EXPECT_THROW(model.vth_shift(1.5, 1.0), std::invalid_argument);
  EXPECT_THROW(model.vth_shift(0.5, -1.0), std::invalid_argument);
  EXPECT_THROW(NbtiModel::cell_stress_ratio(2.0), std::invalid_argument);
}

TEST(SnmModel, MatchesPaperAnchors) {
  CalibratedNbtiDeviceModel model;
  // Paper Sec. V-A: best 10.82% at 50% duty, worst 26.12% at 0%/100%,
  // both after 7 years.
  EXPECT_NEAR(model.degradation(0.5, 7.0, {}), 10.82, 1e-9);
  EXPECT_NEAR(model.degradation(0.0, 7.0, {}), 26.12, 1e-9);
  EXPECT_NEAR(model.degradation(1.0, 7.0, {}), 26.12, 1e-9);
}

TEST(SnmModel, SymmetricAroundHalf) {
  CalibratedNbtiDeviceModel model;
  for (double d : {0.0, 0.1, 0.25, 0.4}) {
    EXPECT_NEAR(model.degradation(d, 7.0, {}),
                model.degradation(1.0 - d, 7.0, {}), 1e-12);
  }
}

TEST(SnmModel, MonotoneInStress) {
  CalibratedNbtiDeviceModel model;
  double previous = 0.0;
  for (int step = 10; step <= 20; ++step) {
    const double snm = model.degradation(0.05 * step, 7.0, {});
    EXPECT_GE(snm, previous);
    previous = snm;
  }
}

TEST(SnmModel, MinimumAtBalancedDuty) {
  CalibratedNbtiDeviceModel model;
  const double at_half = model.degradation(0.5, 7.0, {});
  for (int step = 0; step <= 20; ++step)
    EXPECT_GE(model.degradation(0.05 * step, 7.0, {}), at_half - 1e-12);
}

TEST(SnmModel, GrowsWithTime) {
  CalibratedNbtiDeviceModel model;
  EXPECT_LT(model.degradation(0.7, 1.0, {}), model.degradation(0.7, 7.0, {}));
  EXPECT_LT(model.degradation(0.7, 7.0, {}), model.degradation(0.7, 14.0, {}));
}

TEST(SnmModel, DerivedStressExponent) {
  CalibratedNbtiDeviceModel model;
  // alpha = log2(26.12 / 10.82) ~ 1.2715.
  EXPECT_NEAR(model.stress_exponent(), 1.2715, 1e-3);
}

TEST(SnmModel, CustomAnchors) {
  SnmParams params;
  params.snm_at_balanced = 5.0;
  params.snm_at_full_stress = 20.0;
  CalibratedNbtiDeviceModel model(params);
  EXPECT_NEAR(model.degradation(0.5, 7.0, {}), 5.0, 1e-9);
  EXPECT_NEAR(model.degradation(1.0, 7.0, {}), 20.0, 1e-9);
}

TEST(SnmModel, RejectsInvertedAnchors) {
  SnmParams params;
  params.snm_at_balanced = 30.0;  // above full stress
  EXPECT_THROW(CalibratedNbtiDeviceModel{params}, std::invalid_argument);
}

TEST(AgingReport, SummarisesTracker) {
  DutyCycleTracker tracker(3);
  // Cell 0: balanced. Cell 1: always '1'. Cell 2: unused.
  tracker.add_total_time(0, 10);
  tracker.add_ones_time(0, 5);
  tracker.add_total_time(1, 10);
  tracker.add_ones_time(1, 10);
  CalibratedNbtiDeviceModel model;
  const EnvironmentSegmentView segment{&tracker, {}};
  const AgingReport report = make_aging_report({&segment, 1}, model);
  EXPECT_EQ(report.total_cells, 3u);
  EXPECT_EQ(report.unused_cells, 1u);
  EXPECT_NEAR(report.snm_stats.min(), 10.82, 1e-9);
  EXPECT_NEAR(report.snm_stats.max(), 26.12, 1e-9);
  EXPECT_NEAR(report.fraction_optimal, 0.5, 1e-12);
  EXPECT_EQ(report.snm_histogram.total(), 2u);
}

TEST(AgingReport, ToStringMentionsKeyFields) {
  DutyCycleTracker tracker(1);
  tracker.add_total_time(0, 4);
  tracker.add_ones_time(0, 2);
  CalibratedNbtiDeviceModel model;
  const EnvironmentSegmentView segment{&tracker, {}};
  const auto text = make_aging_report({&segment, 1}, model).to_string();
  EXPECT_NE(text.find("SNM degradation"), std::string::npos);
  EXPECT_NE(text.find("duty-cycle"), std::string::npos);
}

}  // namespace
}  // namespace dnnlife::aging
