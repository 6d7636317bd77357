// Tests for the pluggable device-aging layer: the AgingModelRegistry, the
// DeviceAgingModel strategy interface, environment-timeline composition,
// the phased workload plumbing — and golden pins proving the default
// calibrated NBTI/SNM engine reproduces the pre-refactor
// AgingReport / LifetimeReport numbers bit-identically (every field but
// the mean and variance, which are exact sums since the tally fold).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "aging/device_model.hpp"
#include "aging/lifetime.hpp"
#include "aging/model_registry.hpp"
#include "aging/nbti_model.hpp"
#include "aging/snm_histogram.hpp"
#include "core/fast_simulator.hpp"
#include "core/workload.hpp"
#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/tpu_npu.hpp"
#include "util/bitops.hpp"

namespace dnnlife::aging {
namespace {

constexpr EnvironmentSpec kNominal{};

EnvironmentSpec hot(double temperature_c) {
  EnvironmentSpec env;
  env.temperature_c = temperature_c;
  return env;
}

// ---- golden pins -------------------------------------------------------------

std::uint64_t fnv1a_doubles(const std::vector<double>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double value : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      hash ^= (bits >> (8 * b)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

std::vector<double> report_fields(const AgingReport& report) {
  std::vector<double> fields = {
      report.snm_stats.mean(),  report.snm_stats.min(),
      report.snm_stats.max(),   report.snm_stats.variance(),
      report.duty_stats.mean(), report.duty_stats.min(),
      report.duty_stats.max(),  report.duty_stats.variance(),
      report.fraction_optimal,  static_cast<double>(report.total_cells),
      static_cast<double>(report.unused_cells)};
  for (std::size_t b = 0; b < report.snm_histogram.bin_count(); ++b)
    fields.push_back(report.snm_histogram.fraction_in_bin(b));
  return fields;
}

std::vector<double> lifetime_fields(const LifetimeReport& report) {
  return {report.device_lifetime_years,      report.cell_lifetime.mean(),
          report.cell_lifetime.min(),        report.cell_lifetime.max(),
          report.cell_lifetime.variance(),   report.improvement_over_worst_case,
          report.fraction_of_ideal};
}

/// The same stream tests/test_region_golden.cpp pins tracker hashes for.
sim::VectorWriteStream make_golden_stream() {
  sim::VectorWriteStream stream(sim::MemoryGeometry{6, 96}, 5);
  const std::vector<std::uint64_t> a{0x0123456789abcdefULL, 0x0000000055aa55aaULL};
  const std::vector<std::uint64_t> b{0xdeadbeefcafef00dULL, 0x00000000ffff0000ULL};
  const std::vector<std::uint64_t> c{0x5555555555555555ULL, 0x0000000033333333ULL};
  const std::vector<std::uint64_t> zeros{0, 0};
  const std::vector<std::uint64_t> ones{~0ULL, util::low_mask(32)};
  stream.add_write(0, 0, a);
  stream.add_write(1, 0, b);
  stream.add_write(2, 1, c);
  stream.add_write(3, 1, a);
  stream.add_write(3, 1, b);
  stream.add_write(0, 2, c);
  stream.add_write(4, 2, zeros);
  stream.add_write(1, 3, b);
  stream.add_write(0, 4, b);
  stream.add_write(5, 4, ones);
  return stream;
}

struct GoldenPin {
  core::PolicyConfig policy;
  std::uint64_t aging_hash;
  std::uint64_t lifetime_hash;
};

/// Hashes of the pre-refactor build's reports (the hardcoded calibrated
/// SNM → LifetimeModel chain), default report options, re-captured once
/// when the means and variances became exact sums over the history
/// tallies: no other field moved.
void check_golden(const DutyCycleTracker& tracker, const GoldenPin& pin) {
  const std::string label = pin.policy.name();
  // The tracker as a one-segment view, under the default-constructed
  // engine and lifetime model.
  const EnvironmentSegmentView segment{&tracker, kNominal};
  const CalibratedNbtiDeviceModel default_model;
  EXPECT_EQ(fnv1a_doubles(report_fields(
                make_aging_report({&segment, 1}, default_model))),
            pin.aging_hash)
      << "default aging " << label;
  const LifetimeModel default_lifetime;
  EXPECT_EQ(fnv1a_doubles(lifetime_fields(
                make_lifetime_report({&segment, 1}, default_lifetime))),
            pin.lifetime_hash)
      << "default lifetime " << label;

  // The registry-created default engine over an owned nominal segment,
  // borrowed through segment_views().
  const std::shared_ptr<const DeviceAgingModel> model =
      make_aging_model(kDefaultAgingModel);
  std::vector<EnvironmentSegment> segments;
  segments.push_back(EnvironmentSegment{tracker, kNominal});
  const std::vector<EnvironmentSegmentView> views = segment_views(segments);
  EXPECT_EQ(fnv1a_doubles(report_fields(make_aging_report(views, *model))),
            pin.aging_hash)
      << "registry aging " << label;
  const LifetimeModel lifetime(model);
  EXPECT_EQ(
      fnv1a_doubles(lifetime_fields(make_lifetime_report(views, lifetime))),
      pin.lifetime_hash)
      << "registry lifetime " << label;
}

TEST(DeviceModelGolden, DefaultEngineMatchesPreRefactorReports) {
  const auto stream = make_golden_stream();
  const std::vector<GoldenPin> pins = {
      {core::PolicyConfig::none(), 0xb2892f242a59d75fULL,
       0x4701cf68d6a7e9b2ULL},
      {core::PolicyConfig::dnn_life(0.5), 0xb769fe0e64c72ae4ULL,
       0xa8363bff977dd051ULL},
  };
  for (const GoldenPin& pin : pins)
    check_golden(core::simulate_fast(stream, pin.policy, {16, 1}), pin);
}

TEST(DeviceModelGolden, DefaultEngineMatchesPreRefactorMnistReports) {
  const dnn::Network net = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(net);
  const quant::WeightWordCodec codec(streamer,
                                     quant::WeightFormat::kInt8Symmetric);
  sim::BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 16 * 1024;
  const sim::BaselineWeightStream stream(codec, config);
  const std::vector<GoldenPin> pins = {
      {core::PolicyConfig::none(), 0x8f376621628a6383ULL,
       0x32ff61c423877607ULL},
      {core::PolicyConfig::dnn_life(0.7, true, 4), 0xbba8277c1ca05cbfULL,
       0x72eb6ce99f65fad8ULL},
  };
  for (const GoldenPin& pin : pins)
    check_golden(core::simulate_fast(stream, pin.policy, {8, 1}), pin);
}

TEST(DeviceModelGolden, DefaultModelBitIdenticalToClosedForm) {
  // The paper's calibrated power law spelled out, in the operation order
  // of the pre-registry implementation:
  // S_max * s^alpha * (t / t_ref)^beta with alpha = log2(S_max / S_mid).
  const SnmParams snm;
  const double alpha = std::log2(snm.snm_at_full_stress / snm.snm_at_balanced);
  const CalibratedNbtiDeviceModel device;
  const ArrheniusNbtiDeviceModel arrhenius;  // nominal factors are exactly 1
  for (int d = 0; d <= 20; ++d) {
    const double duty = 0.05 * d;
    for (const double years : {0.0, 1.0, 3.5, 7.0, 20.0}) {
      const double expected =
          snm.snm_at_full_stress *
          std::pow(NbtiModel::cell_stress_ratio(duty), alpha) *
          std::pow(years / snm.t_ref_years, snm.time_exponent);
      EXPECT_EQ(device.degradation(duty, years, kNominal), expected);
      EXPECT_EQ(arrhenius.degradation(duty, years, kNominal), expected);
    }
  }
}

TEST(DeviceModelGolden, DualBtiDeviceModelMatchesClosedForm) {
  // The footnote-1 model spelled out: the worse of two inverters, each
  // NBTI-stressed PMOS plus weaker PBTI-stressed NMOS.
  const DualBtiDeviceModel::Params params;
  const SnmParams& nbti = params.nbti;
  const double alpha =
      std::log2(nbti.snm_at_full_stress / nbti.snm_at_balanced);
  const auto stress_term = [&](double s) {
    return s <= 0.0 ? 0.0 : std::pow(s, alpha);
  };
  const auto inverter = [&](double pmos_stress) {
    return nbti.snm_at_full_stress *
           (stress_term(pmos_stress) +
            params.pbti_ratio * stress_term(1.0 - pmos_stress));
  };
  const DualBtiDeviceModel device;
  for (int d = 0; d <= 10; ++d) {
    const double duty = 0.1 * d;
    for (const double years : {1.0, 7.0, 12.0})
      EXPECT_EQ(device.degradation(duty, years, kNominal),
                std::max(inverter(duty), inverter(1.0 - duty)) *
                    std::pow(years / nbti.t_ref_years, nbti.time_exponent));
  }
}

// ---- registry ----------------------------------------------------------------

TEST(AgingModelRegistry, BuiltInsRegistered) {
  auto& registry = AgingModelRegistry::instance();
  for (const char* name :
       {"calibrated-nbti", "arrhenius-nbti", "pbti-hci", "dual-bti"})
    EXPECT_TRUE(registry.contains(name)) << name;
  EXPECT_FALSE(registry.contains("martian-model"));
  EXPECT_GE(registry.names().size(), 4u);
}

TEST(AgingModelRegistry, CreateHonoursCalibration) {
  SnmParams snm;
  snm.snm_at_balanced = 9.0;
  snm.snm_at_full_stress = 30.0;
  const auto model = make_aging_model(kDefaultAgingModel, snm);
  EXPECT_EQ(model->name(), "calibrated-nbti");
  EXPECT_DOUBLE_EQ(model->degradation(1.0, snm.t_ref_years, {}), 30.0);
  EXPECT_NEAR(model->degradation(0.5, snm.t_ref_years, {}), 9.0, 1e-9);
}

TEST(AgingModelRegistry, UnknownNameThrowsListingRegistered) {
  try {
    make_aging_model("martian-model");
    FAIL() << "unknown model accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("martian-model"), std::string::npos);
    EXPECT_NE(message.find("calibrated-nbti"), std::string::npos);
  }
}

TEST(AgingModelRegistry, CustomModelsPlugIn) {
  struct FrozenModel final : PowerLawDeviceModel {
    FrozenModel() : PowerLawDeviceModel(7.0, 1.0 / 6.0) {}
    std::string_view name() const noexcept override { return "test-frozen"; }
    double amplitude(double, const EnvironmentSpec&) const override {
      return 12.5;  // duty-independent
    }
  };
  auto& registry = AgingModelRegistry::instance();
  const DeviceModelFactory factory = [](const SnmParams&,
                                        const AgingModelParams& params) {
    ModelParamReader(params, "test-frozen").finish();
    return std::make_unique<FrozenModel>();
  };
  if (!registry.contains("test-frozen")) registry.add("test-frozen", factory);
  EXPECT_THROW(registry.add("test-frozen", factory), std::invalid_argument);
  const auto model = make_aging_model("test-frozen");
  EXPECT_DOUBLE_EQ(model->degradation(0.1, 7.0, {}), 12.5);
  EXPECT_DOUBLE_EQ(model->degradation(0.9, 7.0, {}), 12.5);
}

// ---- environment response ----------------------------------------------------

TEST(ArrheniusModel, HotterMonotonicallyAcceleratesAging) {
  const ArrheniusNbtiDeviceModel model;
  double previous = 0.0;
  for (const double t : {25.0, 55.0, 70.0, 85.0, 105.0, 125.0}) {
    const double degradation = model.degradation(0.8, 7.0, hot(t));
    EXPECT_GT(degradation, previous) << t;
    previous = degradation;
  }
  // Arrhenius helper sanity: exactly 1 at the reference temperature.
  EXPECT_EQ(arrhenius_acceleration(55.0, 55.0, 0.1), 1.0);
  EXPECT_GT(arrhenius_acceleration(85.0, 55.0, 0.1), 1.0);
  EXPECT_LT(arrhenius_acceleration(25.0, 55.0, 0.1), 1.0);
}

TEST(ArrheniusModel, OvervoltAcceleratesAging) {
  const ArrheniusNbtiDeviceModel model;
  EnvironmentSpec overvolt;
  overvolt.vdd = 1.2;
  EXPECT_GT(model.degradation(0.8, 7.0, overvolt),
            model.degradation(0.8, 7.0, kNominal));
}

TEST(DeviceModels, PowerGatingStopsBtiStress) {
  EnvironmentSpec gated;
  gated.activity_scale = 0.0;
  const CalibratedNbtiDeviceModel nbti;
  EXPECT_EQ(nbti.degradation(0.9, 7.0, gated), 0.0);
  EXPECT_EQ(nbti.years_to_reach(0.9, 20.0, gated),
            std::numeric_limits<double>::infinity());
}

TEST(DeviceModels, BalancedDutyMaximisesLifetimeForEveryBuiltIn) {
  for (const std::string& name : AgingModelRegistry::instance().names()) {
    if (name.rfind("test-", 0) == 0) continue;  // custom test stubs
    const auto model = make_aging_model(name);
    const double best = model->years_to_reach(0.5, 20.0, kNominal);
    for (int d = 0; d <= 20; ++d) {
      const double duty = 0.05 * d;
      EXPECT_LE(model->years_to_reach(duty, 20.0, kNominal), best + 1e-9)
          << name << " duty " << duty;
    }
  }
}

// ---- PBTI/HCI (generic, non-power-law paths) ---------------------------------

TEST(PbtiHciModel, DifferentStressMappingFlattensDutyContrast) {
  const PbtiHciDeviceModel pbti;
  const CalibratedNbtiDeviceModel nbti;
  const double contrast_pbti = pbti.degradation(1.0, 7.0, kNominal) /
                               pbti.degradation(0.5, 7.0, kNominal);
  const double contrast_nbti = nbti.degradation(1.0, 7.0, kNominal) /
                               nbti.degradation(0.5, 7.0, kNominal);
  EXPECT_LT(contrast_pbti, contrast_nbti);
  EXPECT_GT(contrast_pbti, 1.0);  // duty still matters
}

TEST(PbtiHciModel, GenericInversionIsConsistent) {
  const PbtiHciDeviceModel model;
  for (const double duty : {0.1, 0.5, 0.93}) {
    for (const double target : {5.0, 15.0, 26.0}) {
      const double years = model.years_to_reach(duty, target, kNominal);
      ASSERT_TRUE(std::isfinite(years));
      EXPECT_NEAR(model.degradation(duty, years, kNominal), target,
                  target * 1e-9)
          << "duty " << duty << " target " << target;
    }
  }
  EXPECT_EQ(model.years_to_reach(0.5, 0.0, kNominal), 0.0);
}

TEST(PbtiHciModel, HotterPhaseShortensGenericTimelineLifetime) {
  const PbtiHciDeviceModel model;
  const std::vector<StressSegment> cool = {{0.8, 0.5, kNominal},
                                           {0.8, 0.5, kNominal}};
  const std::vector<StressSegment> mixed = {{0.8, 0.5, kNominal},
                                            {0.8, 0.5, hot(95.0)}};
  EXPECT_LT(model.years_to_failure(mixed, 20.0),
            model.years_to_failure(cool, 20.0));
  // And the degradation view agrees at a fixed horizon.
  EXPECT_GT(model.degradation_on_timeline(mixed, 7.0),
            model.degradation_on_timeline(cool, 7.0));
}

// ---- timeline composition ----------------------------------------------------

TEST(Timeline, SingleSegmentShortCircuitsBitIdentically) {
  const CalibratedNbtiDeviceModel model;
  const std::vector<StressSegment> single = {{0.8, 123.0, kNominal}};
  EXPECT_EQ(model.degradation_on_timeline(single, 7.0),
            model.degradation(0.8, 7.0, kNominal));
  EXPECT_EQ(model.years_to_failure(single, 20.0),
            model.years_to_reach(0.8, 20.0, kNominal));
  // Zero-weight segments are ignored entirely.
  const std::vector<StressSegment> padded = {{0.2, 0.0, hot(99.0)},
                                             {0.8, 123.0, kNominal}};
  EXPECT_EQ(model.degradation_on_timeline(padded, 7.0),
            model.degradation(0.8, 7.0, kNominal));
}

TEST(Timeline, EqualSegmentsCollapseToOneOperatingPoint) {
  const ArrheniusNbtiDeviceModel model;
  const std::vector<StressSegment> split = {{0.7, 1.0, hot(85.0)},
                                            {0.7, 3.0, hot(85.0)}};
  const double composed = model.degradation_on_timeline(split, 7.0);
  const double direct = model.degradation(0.7, 7.0, hot(85.0));
  EXPECT_NEAR(composed, direct, direct * 1e-12);
}

TEST(Timeline, HotterPhaseShortensLifetimeMonotonically) {
  const ArrheniusNbtiDeviceModel model;
  double previous = std::numeric_limits<double>::infinity();
  for (const double t : {55.0, 70.0, 85.0, 105.0}) {
    const std::vector<StressSegment> timeline = {{0.8, 0.5, kNominal},
                                                 {0.8, 0.5, hot(t)}};
    const double years = model.years_to_failure(timeline, 20.0);
    EXPECT_LT(years, previous) << t;
    previous = years;
  }
}

TEST(Timeline, CompositionIsBoundedByItsCorners) {
  // A mixed nominal/hot lifetime must age faster than all-nominal and
  // slower than all-hot.
  const ArrheniusNbtiDeviceModel model;
  const std::vector<StressSegment> mixed = {{0.8, 1.0, kNominal},
                                            {0.8, 1.0, hot(95.0)}};
  const double composed = model.degradation_on_timeline(mixed, 7.0);
  EXPECT_GT(composed, model.degradation(0.8, 7.0, kNominal));
  EXPECT_LT(composed, model.degradation(0.8, 7.0, hot(95.0)));
}

TEST(Timeline, GenericAndClosedFormCompositionsAgree) {
  // The power-law closed form must match the generic equivalent-time
  // recursion (evaluated through a wrapper that hides the power-law
  // structure so the base-class implementation runs).
  struct OpaqueWrapper final : DeviceAgingModel {
    ArrheniusNbtiDeviceModel inner;
    std::string_view name() const noexcept override { return "opaque"; }
    double reference_years() const noexcept override {
      return inner.reference_years();
    }
    double degradation(double duty, double years,
                       const EnvironmentSpec& env) const override {
      return inner.degradation(duty, years, env);
    }
  };
  const OpaqueWrapper generic;
  const std::vector<StressSegment> timeline = {{0.9, 2.0, kNominal},
                                               {0.6, 1.0, hot(85.0)},
                                               {0.8, 1.0, hot(105.0)}};
  const double closed = generic.inner.degradation_on_timeline(timeline, 7.0);
  const double iterated = generic.degradation_on_timeline(timeline, 7.0);
  EXPECT_NEAR(iterated, closed, closed * 1e-9);
  const double closed_life = generic.inner.years_to_failure(timeline, 20.0);
  const double iterated_life = generic.years_to_failure(timeline, 20.0);
  EXPECT_NEAR(iterated_life, closed_life, closed_life * 1e-9);
}

TEST(Timeline, RejectsDegenerateTimelines) {
  const CalibratedNbtiDeviceModel model;
  EXPECT_THROW(model.degradation_on_timeline({}, 7.0), std::invalid_argument);
  const std::vector<StressSegment> weightless = {{0.5, 0.0, kNominal}};
  EXPECT_THROW(model.degradation_on_timeline(weightless, 7.0),
               std::invalid_argument);
  const std::vector<StressSegment> negative = {{0.5, -1.0, kNominal}};
  EXPECT_THROW(model.years_to_failure(negative, 20.0), std::invalid_argument);
}

// ---- environment validation --------------------------------------------------

TEST(Environment, ValidatesPhysicalRanges) {
  EXPECT_NO_THROW(validate_environment(EnvironmentSpec{}));
  EnvironmentSpec frozen;
  frozen.temperature_c = -300.0;
  EXPECT_THROW(validate_environment(frozen), std::invalid_argument);
  EnvironmentSpec unpowered;
  unpowered.vdd = 0.0;
  EXPECT_THROW(validate_environment(unpowered), std::invalid_argument);
  EnvironmentSpec overactive;
  overactive.activity_scale = 1.5;
  EXPECT_THROW(validate_environment(overactive), std::invalid_argument);
  EXPECT_TRUE(is_nominal(EnvironmentSpec{}));
  EXPECT_FALSE(is_nominal(hot(85.0)));
}

// ---- phased workload plumbing ------------------------------------------------

class PhasedWorkloadFixture : public ::testing::Test {
 protected:
  PhasedWorkloadFixture()
      : network_(dnn::make_custom_mnist()), streamer_(network_),
        codec_(streamer_, quant::WeightFormat::kInt8Symmetric),
        stream_(codec_, sim::TpuNpuConfig{}) {}

  core::RegionPolicyTable uniform_table() const {
    return core::RegionPolicyTable::uniform(stream_.geometry(),
                                            core::PolicyConfig::inversion());
  }

  dnn::Network network_;
  dnn::WeightStreamer streamer_;
  quant::WeightWordCodec codec_;
  sim::NpuWeightStream stream_;
};

TEST_F(PhasedWorkloadFixture, NominalPhasesCoalesceToOneSegment) {
  const std::vector<core::WorkloadPhase> phases = {{&stream_, 6}, {&stream_, 4}};
  const auto phased = core::simulate_workload_phased(phases, uniform_table());
  ASSERT_EQ(phased.segments.size(), 1u);
  EXPECT_TRUE(is_nominal(phased.segments[0].environment));
  // The single segment *is* the combined view.
  EXPECT_EQ(phased.segments[0].tracker.ones_time(),
            phased.combined.ones_time());
  EXPECT_EQ(phased.segments[0].tracker.total_time(),
            phased.combined.total_time());
}

TEST_F(PhasedWorkloadFixture, CombinedMatchesLegacyWorkloadBitIdentically) {
  const std::vector<core::WorkloadPhase> phases = {
      {&stream_, 6, hot(85.0)}, {&stream_, 4}, {&stream_, 3}};
  const auto table = uniform_table();
  const auto phased = core::simulate_workload_phased(phases, table);
  const auto legacy = core::simulate_workload(phases, table);
  ASSERT_EQ(phased.segments.size(), 2u);  // hot | {nominal, nominal}
  EXPECT_EQ(phased.combined.ones_time(), legacy.ones_time());
  EXPECT_EQ(phased.combined.total_time(), legacy.total_time());
  // Segment trackers partition the combined accumulators.
  DutyCycleTracker merged(phased.combined.cell_count());
  for (const EnvironmentSegment& segment : phased.segments)
    merged.merge(segment.tracker);
  EXPECT_EQ(merged.ones_time(), phased.combined.ones_time());
}

TEST_F(PhasedWorkloadFixture, DormantPhasesProduceNoSegments) {
  const std::vector<core::WorkloadPhase> phases = {{&stream_, 0, hot(85.0)},
                                                   {&stream_, 0}};
  const auto phased = core::simulate_workload_phased(phases, uniform_table());
  EXPECT_TRUE(phased.segments.empty());
  EXPECT_EQ(phased.combined.unused_cell_count(), phased.combined.cell_count());
}

TEST_F(PhasedWorkloadFixture, HotterPhaseShortensDeviceLifetimeEndToEnd) {
  const std::vector<core::WorkloadPhase> cool = {{&stream_, 5}, {&stream_, 5}};
  const std::vector<core::WorkloadPhase> heated = {{&stream_, 5},
                                                   {&stream_, 5, hot(95.0)}};
  const auto table = uniform_table();
  const std::shared_ptr<const DeviceAgingModel> model =
      make_aging_model("arrhenius-nbti");
  const LifetimeModel lifetime(model);
  const auto cool_report = make_lifetime_report(
      segment_views(core::simulate_workload_phased(cool, table).segments),
      lifetime);
  const auto heated_report = make_lifetime_report(
      segment_views(core::simulate_workload_phased(heated, table).segments),
      lifetime);
  EXPECT_LT(heated_report.device_lifetime_years,
            cool_report.device_lifetime_years);
  // The aging report over the same segments agrees directionally.
  const auto cool_aging = make_aging_report(
      segment_views(core::simulate_workload_phased(cool, table).segments),
      *model);
  const auto heated_aging = make_aging_report(
      segment_views(core::simulate_workload_phased(heated, table).segments),
      *model);
  EXPECT_GT(heated_aging.snm_stats.mean(), cool_aging.snm_stats.mean());
}

TEST(SegmentChecks, RejectMismatchedSegments) {
  DutyCycleTracker small(4);
  DutyCycleTracker large(8);
  std::vector<EnvironmentSegment> segments;
  segments.push_back(EnvironmentSegment{small, kNominal});
  segments.push_back(EnvironmentSegment{large, kNominal});
  EXPECT_THROW(check_segments(segment_views(segments)),
               std::invalid_argument);
  EXPECT_THROW(check_segments(std::span<const EnvironmentSegmentView>{}),
               std::invalid_argument);
}

TEST(LifetimeRegions, BreakdownPartitionsTheDevice) {
  DutyCycleTracker tracker(6);
  for (std::size_t cell = 0; cell < 6; ++cell) tracker.add_total_time(cell, 10);
  for (const auto& [cell, ones] :
       std::vector<std::pair<std::size_t, std::uint32_t>>{
           {0, 5}, {1, 6}, {2, 9}, {3, 5}, {4, 10}, {5, 5}})
    tracker.add_ones_time(cell, ones);
  tracker.set_regions({CellRegion{"a", 0, 3}, CellRegion{"b", 3, 6}});
  const LifetimeModel model;
  const EnvironmentSegmentView segment{&tracker, {}};
  const auto report = make_lifetime_report({&segment, 1}, model);
  ASSERT_EQ(report.regions.size(), 2u);
  EXPECT_EQ(report.regions[0].name, "a");
  EXPECT_EQ(report.regions[0].cell_lifetime.count(), 3u);
  // Worst cell of region a is duty 0.9; of region b duty 1.0 — the device
  // dies with region b's worst cell.
  EXPECT_NEAR(report.regions[0].device_lifetime_years,
              model.years_to_failure(0.9), 1e-12);
  EXPECT_NEAR(report.regions[1].device_lifetime_years,
              model.years_to_failure(1.0), 1e-12);
  EXPECT_DOUBLE_EQ(
      report.device_lifetime_years,
      std::min(report.regions[0].device_lifetime_years,
               report.regions[1].device_lifetime_years));
}

}  // namespace
}  // namespace dnnlife::aging
