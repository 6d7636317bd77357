// Tests for the declarative scenario layer: the JSON reader, strict spec
// parsing, end-to-end scenario runs (hybrid regions, multi-phase), the
// soft deadline's stage-boundary checks and the per-stage thread budgets
// asked at those same boundaries.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fast_simulator.hpp"
#include "core/scenario.hpp"
#include "core/sim_cache.hpp"
#include "core/workload.hpp"
#include "dnn/model_zoo.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dnnlife::core {
namespace {

// ---- JSON reader -------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  const auto root = util::JsonValue::parse(
      R"({"a": 1.5, "b": "text", "c": [1, 2, 3], "d": {"x": true}, "e": null})");
  EXPECT_DOUBLE_EQ(root.at("a").as_number(), 1.5);
  EXPECT_EQ(root.at("b").as_string(), "text");
  ASSERT_EQ(root.at("c").items().size(), 3u);
  EXPECT_EQ(root.at("c").items()[2].as_uint(), 3u);
  EXPECT_TRUE(root.at("d").at("x").as_bool());
  EXPECT_TRUE(root.at("e").is_null());
  EXPECT_EQ(root.find("missing"), nullptr);
  EXPECT_THROW(root.at("missing"), std::invalid_argument);
}

TEST(Json, ParsesEscapesAndNegativeExponents) {
  const auto root =
      util::JsonValue::parse(R"({"s": "a\"b\nA", "n": -2.5e-2})");
  EXPECT_EQ(root.at("s").as_string(), "a\"b\nA");
  EXPECT_DOUBLE_EQ(root.at("n").as_number(), -0.025);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(util::JsonValue::parse("{"), std::invalid_argument);
  EXPECT_THROW(util::JsonValue::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(util::JsonValue::parse(R"({"a": })"), std::invalid_argument);
  EXPECT_THROW(util::JsonValue::parse(R"({"a": 1, "a": 2})"),
               std::invalid_argument);
  EXPECT_THROW(util::JsonValue::parse(R"("unterminated)"),
               std::invalid_argument);
  EXPECT_THROW(util::JsonValue::parse("01a"), std::invalid_argument);
  EXPECT_THROW(util::JsonValue::parse(""), std::invalid_argument);
}

TEST(Json, TypedAccessorsCheckTypes) {
  const auto root = util::JsonValue::parse(R"({"n": 3, "neg": -1, "f": 1.25})");
  EXPECT_THROW(root.at("n").as_string(), std::invalid_argument);
  EXPECT_THROW(root.at("n").as_bool(), std::invalid_argument);
  EXPECT_THROW(root.at("n").items(), std::invalid_argument);
  EXPECT_EQ(root.at("n").as_uint(), 3u);
  EXPECT_THROW(root.at("neg").as_uint(), std::invalid_argument);
  EXPECT_THROW(root.at("f").as_uint(), std::invalid_argument);
}

// ---- scenario parsing --------------------------------------------------------

constexpr const char* kHybridScenario = R"json({
  "name": "hybrid",
  "hardware": "tpu-like-npu",
  "format": "int8-symmetric",
  "npu": {"array_dim": 64, "fifo_tiles": 2},
  "phases": [
    {"network": "custom_mnist", "inferences": 8},
    {"network": "custom_mnist", "inferences": 4}
  ],
  "regions": [
    {"name": "hot", "rows": 0.25,
     "policy": {"kind": "dnn-life", "trbg_bias": 0.7, "balancer_bits": 4}},
    {"name": "cold", "rows": 0.75, "policy": {"kind": "no-mitigation"}}
  ],
  "threads": 2
})json";

TEST(ScenarioParse, ReadsTheFullSchema) {
  const ScenarioSpec spec = parse_scenario(kHybridScenario);
  EXPECT_EQ(spec.name, "hybrid");
  EXPECT_EQ(spec.hardware, HardwareKind::kTpuNpu);
  EXPECT_EQ(spec.format, quant::WeightFormat::kInt8Symmetric);
  EXPECT_EQ(spec.npu.array_dim, 64u);
  EXPECT_EQ(spec.npu.fifo_tiles, 2u);
  ASSERT_EQ(spec.phases.size(), 2u);
  EXPECT_EQ(spec.phases[0].network, "custom_mnist");
  EXPECT_EQ(spec.phases[1].inferences, 4u);
  ASSERT_EQ(spec.regions.size(), 2u);
  EXPECT_EQ(spec.regions[0].name, "hot");
  EXPECT_DOUBLE_EQ(spec.regions[0].row_fraction, 0.25);
  EXPECT_EQ(spec.regions[0].policy.kind, "dnn-life");
  EXPECT_DOUBLE_EQ(spec.regions[0].policy.trbg_bias, 0.7);
  EXPECT_EQ(spec.regions[1].policy.kind, "no-mitigation");
  EXPECT_EQ(spec.threads, 2u);
}

TEST(ScenarioParse, RejectsUnknownMembersAndBadValues) {
  EXPECT_THROW(parse_scenario(R"({"phases": [], "typo_key": 1})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"phases": []})"), std::invalid_argument);
  EXPECT_THROW(
      parse_scenario(
          R"({"phases": [{"network": "custom_mnist", "inferencez": 1}]})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario(R"({"hardware": "abacus",
                         "phases": [{"network": "custom_mnist"}]})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario(R"({"format": "int4",
                         "phases": [{"network": "custom_mnist"}]})"),
      std::invalid_argument);
  // Policy validation runs during parsing (fail at the spec, not mid-run).
  EXPECT_THROW(
      parse_scenario(R"({"phases": [{"network": "custom_mnist"}],
                         "regions": [{"name": "all", "rows": 1.0,
                                      "policy": {"kind": "dnn-life",
                                                 "trbg_bias": 1.5}}]})"),
      std::invalid_argument);
  // weight_bits is always the codec's width: a spec cannot override it,
  // and pretending to accept one would silently misconfigure the run.
  EXPECT_THROW(
      parse_scenario(R"({"phases": [{"network": "custom_mnist"}],
                         "regions": [{"name": "all", "rows": 1.0,
                                      "policy": {"kind": "barrel-shifter",
                                                 "weight_bits": 16}}]})"),
      std::invalid_argument);
  // Unregistered custom policy names are rejected at the "kind" member.
  EXPECT_THROW(
      parse_scenario(R"({"phases": [{"network": "custom_mnist"}],
                         "regions": [{"name": "all", "rows": 1.0,
                                      "policy": {"kind": "martian"}}]})"),
      std::invalid_argument);
  // A region must state its policy — silently defaulting to no-mitigation
  // would hide a forgotten member.
  EXPECT_THROW(
      parse_scenario(R"({"phases": [{"network": "custom_mnist"}],
                         "regions": [{"name": "hot", "rows": 1.0}]})"),
      std::invalid_argument);
}

TEST(ScenarioParse, ReadsReportAndSnmCalibration) {
  const ScenarioSpec spec = parse_scenario(R"json({
    "phases": [{"network": "custom_mnist", "inferences": 2}],
    "report": {"years": 3.0, "optimal_tolerance": 1.5},
    "snm": {"snm_at_balanced": 10.0, "snm_at_full_stress": 25.0,
            "t_ref_years": 5.0, "time_exponent": 0.2}
  })json");
  EXPECT_DOUBLE_EQ(spec.report.years, 3.0);
  EXPECT_DOUBLE_EQ(spec.report.optimal_tolerance, 1.5);
  EXPECT_DOUBLE_EQ(spec.snm.snm_at_balanced, 10.0);
  EXPECT_DOUBLE_EQ(spec.snm.snm_at_full_stress, 25.0);
  EXPECT_DOUBLE_EQ(spec.snm.t_ref_years, 5.0);
  EXPECT_DOUBLE_EQ(spec.snm.time_exponent, 0.2);
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist"}],
                       "snm": {"snm_at_balanced": 10.0, "typo": 1}})"),
               std::invalid_argument);
}

TEST(ScenarioParse, HardwareAndFormatNamesRoundTrip) {
  for (const HardwareKind kind : {HardwareKind::kBaseline, HardwareKind::kTpuNpu})
    EXPECT_EQ(hardware_kind_from_string(to_string(kind)), kind);
  EXPECT_THROW(hardware_kind_from_string("gpu"), std::invalid_argument);
  for (const quant::WeightFormat format :
       {quant::WeightFormat::kFloat32, quant::WeightFormat::kInt8Symmetric,
        quant::WeightFormat::kInt8Asymmetric})
    EXPECT_EQ(quant::weight_format_from_string(quant::to_string(format)),
              format);
  EXPECT_THROW(quant::weight_format_from_string("int4"),
               std::invalid_argument);
}

TEST(ScenarioParse, HardwareKindNames) {
  EXPECT_EQ(to_string(HardwareKind::kBaseline), "baseline-accelerator");
  EXPECT_EQ(to_string(HardwareKind::kTpuNpu), "tpu-like-npu");
  // The example CLIs' short aliases are not hardware kind names; the
  // error lists the names that are.
  try {
    hardware_kind_from_string("baseline");
    ADD_FAILURE() << "the short alias parsed";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(
                  "baseline-accelerator, tpu-like-npu"),
              std::string::npos)
        << error.what();
  }
}

// ---- end-to-end scenario runs ------------------------------------------------

TEST(ScenarioRun, HybridRegionsEndToEnd) {
  const ScenarioSpec spec = parse_scenario(kHybridScenario);
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.phase_labels.size(), 2u);
  EXPECT_EQ(result.phase_labels[0], "custom_mnist x 8");
  ASSERT_EQ(result.report.regions.size(), 2u);
  EXPECT_EQ(result.report.regions[0].name, "hot");
  EXPECT_EQ(result.report.regions[1].name, "cold");
  EXPECT_EQ(result.report.regions[0].total_cells +
                result.report.regions[1].total_cells,
            result.report.total_cells);
  EXPECT_EQ(result.report.total_cells, result.geometry.cells());
  // The protected region must age no worse than the unprotected one on
  // the used cells (DNN-Life balances duty-cycles).
  const auto& hot = result.report.regions[0];
  const auto& cold = result.report.regions[1];
  if (hot.snm_stats.count() > 0 && cold.snm_stats.count() > 0) {
    EXPECT_LE(hot.snm_stats.mean(), cold.snm_stats.mean() + 1e-9);
  }
  // The lifetime solve rides along, with the same per-region breakdown.
  ASSERT_TRUE(result.lifetime.has_value());
  ASSERT_EQ(result.lifetime->regions.size(), 2u);
  EXPECT_EQ(result.lifetime->regions[0].name, "hot");
  EXPECT_GT(result.lifetime->device_lifetime_years, 0.0);
}

/// The weight stream of `spec`'s hardware for `codec`, built by hand.
std::unique_ptr<sim::WriteStream> direct_stream(
    const ScenarioSpec& spec, const quant::WeightWordCodec& codec) {
  if (spec.hardware == HardwareKind::kBaseline)
    return std::make_unique<sim::BaselineWeightStream>(codec, spec.baseline);
  return std::make_unique<sim::NpuWeightStream>(codec, spec.npu);
}

TEST(ScenarioRun, UniformScenarioMatchesDirectWorkload) {
  // A one-phase, whole-memory scenario is one simulate_fast run on the
  // stream built by hand, under phase 0's policy seed derive_seed(seed, 1).
  // Every sweep golden, store entry and summary digest rests on this seed
  // convention, so it must hold bit for bit.
  const dnn::Network network = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(network);
  const quant::WeightWordCodec codec(streamer,
                                     quant::WeightFormat::kInt8Symmetric);
  const aging::CalibratedNbtiDeviceModel model;
  for (const HardwareKind hardware :
       {HardwareKind::kBaseline, HardwareKind::kTpuNpu}) {
    ScenarioSpec spec;
    spec.hardware = hardware;
    spec.baseline.weight_memory_bytes = 16384;
    spec.npu.array_dim = 16;
    spec.npu.fifo_tiles = 2;
    spec.phases = {{"custom_mnist", 6, {}}};
    const auto stream = direct_stream(spec, codec);
    for (const PolicyConfig& policy :
         {PolicyConfig::inversion(), PolicyConfig::dnn_life(0.5),
          PolicyConfig::dnn_life(0.7, true, 4)}) {
      SCOPED_TRACE(to_string(hardware) + ", " + policy.name());
      spec.regions = {{"memory", 1.0, policy}};
      const ScenarioResult result = run_scenario(spec);
      PolicyConfig phase0 = policy;
      phase0.seed = util::derive_seed(policy.seed, 1);
      phase0.weight_bits = codec.bits();
      const auto tracker = simulate_fast(*stream, phase0, {6});
      const aging::EnvironmentSegmentView segment{&tracker, {}};
      const auto direct = make_aging_report({&segment, 1}, model);
      EXPECT_EQ(result.report.total_cells, direct.total_cells);
      EXPECT_EQ(result.report.unused_cells, direct.unused_cells);
      EXPECT_EQ(result.report.duty_stats.mean(), direct.duty_stats.mean());
      EXPECT_EQ(result.report.snm_stats.mean(), direct.snm_stats.mean());
      EXPECT_EQ(result.report.snm_stats.variance(),
                direct.snm_stats.variance());
      EXPECT_EQ(result.report.snm_stats.max(), direct.snm_stats.max());
      EXPECT_EQ(result.report.fraction_optimal, direct.fraction_optimal);
    }
  }
}

// ---- environment / aging-model schema ----------------------------------------

TEST(ScenarioParse, ReadsPhaseEnvironmentsAndAgingModel) {
  const ScenarioSpec spec = parse_scenario(R"json({
    "aging_model": "arrhenius-nbti",
    "lifetime": {"snm_failure_threshold": 22.5},
    "phases": [
      {"network": "custom_mnist", "inferences": 4,
       "environment": {"temperature_c": 85.0, "vdd": 1.1,
                       "activity_scale": 0.75}},
      {"network": "custom_mnist", "inferences": 2}
    ]
  })json");
  EXPECT_EQ(spec.aging_model, "arrhenius-nbti");
  EXPECT_DOUBLE_EQ(spec.lifetime.snm_failure_threshold, 22.5);
  ASSERT_EQ(spec.phases.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.phases[0].environment.temperature_c, 85.0);
  EXPECT_DOUBLE_EQ(spec.phases[0].environment.vdd, 1.1);
  EXPECT_DOUBLE_EQ(spec.phases[0].environment.activity_scale, 0.75);
  EXPECT_TRUE(aging::is_nominal(spec.phases[1].environment));
}

TEST(ScenarioParse, RejectsMalformedEnvironmentBlocks) {
  // Unknown member.
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist",
                       "environment": {"temp": 85}}]})"),
               std::invalid_argument);
  // Wrong type.
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist",
                       "environment": {"temperature_c": "hot"}}]})"),
               std::invalid_argument);
  // Out-of-range values.
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist",
                       "environment": {"temperature_c": -400}}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist",
                       "environment": {"vdd": 0}}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist",
                       "environment": {"activity_scale": 1.5}}]})"),
               std::invalid_argument);
  // Environment must be an object, not a scalar.
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist",
                       "environment": 85}]})"),
               std::invalid_argument);
}

TEST(ScenarioParse, RejectsUnknownAgingModelListingRegistered) {
  try {
    parse_scenario(R"({"aging_model": "martian-model",
                       "phases": [{"network": "custom_mnist"}]})");
    FAIL() << "unknown aging model accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("martian-model"), std::string::npos);
    EXPECT_NE(message.find("calibrated-nbti"), std::string::npos);
    EXPECT_NE(message.find("arrhenius-nbti"), std::string::npos);
  }
  // An unreachable lifetime threshold is rejected at the document too.
  EXPECT_THROW(parse_scenario(R"({"lifetime": {"snm_failure_threshold": -1},
                                  "phases": [{"network": "custom_mnist"}]})"),
               std::invalid_argument);
}

TEST(ScenarioRun, PerPhaseTemperaturesShortenLifetimeEndToEnd) {
  const char* base = R"json({
    "hardware": "tpu-like-npu",
    "npu": {"array_dim": 64, "fifo_tiles": 2},
    "aging_model": "arrhenius-nbti",
    "phases": [
      {"network": "custom_mnist", "inferences": 6},
      {"network": "custom_mnist", "inferences": 6%ENV%}
    ]
  })json";
  const auto run_with = [&](const std::string& env_suffix) {
    std::string json = base;
    json.replace(json.find("%ENV%"), 5, env_suffix);
    return run_scenario(parse_scenario(json));
  };
  const ScenarioResult cool = run_with("");
  const ScenarioResult heated = run_with(
      R"(, "environment": {"temperature_c": 95.0})");
  ASSERT_TRUE(cool.lifetime.has_value());
  ASSERT_TRUE(heated.lifetime.has_value());
  EXPECT_LT(heated.lifetime->device_lifetime_years,
            cool.lifetime->device_lifetime_years);
  EXPECT_GT(heated.report.snm_stats.mean(), cool.report.snm_stats.mean());
  // The phase label names the non-nominal environment.
  EXPECT_NE(heated.phase_labels[1].find("95"), std::string::npos);
  EXPECT_EQ(heated.phase_labels[0], "custom_mnist x 6");
}

TEST(ScenarioRun, DefaultModelNominalEnvironmentsMatchLegacyNumbers) {
  // A multi-phase all-nominal scenario must produce the same aging report
  // the legacy merged-tracker path computes (single-segment collapse).
  const char* json = R"json({
    "hardware": "baseline-accelerator",
    "baseline": {"weight_memory_bytes": 16384},
    "phases": [
      {"network": "custom_mnist", "inferences": 3},
      {"network": "custom_mnist", "inferences": 3}
    ]
  })json";
  const ScenarioSpec spec = parse_scenario(json);
  const ScenarioResult result = run_scenario(spec);
  const dnn::Network network = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(network);
  const quant::WeightWordCodec codec(streamer, spec.format);
  const auto stream = direct_stream(spec, codec);
  const std::vector<WorkloadPhase> phases = {WorkloadPhase{stream.get(), 3},
                                             WorkloadPhase{stream.get(), 3}};
  const auto tracker = simulate_workload(
      phases, RegionPolicyTable::uniform(stream->geometry(), PolicyConfig{}));
  const aging::CalibratedNbtiDeviceModel model;
  const aging::EnvironmentSegmentView segment{&tracker, {}};
  const auto direct = make_aging_report({&segment, 1}, model);
  EXPECT_EQ(result.report.snm_stats.mean(), direct.snm_stats.mean());
  EXPECT_EQ(result.report.snm_stats.max(), direct.snm_stats.max());
  EXPECT_EQ(result.report.fraction_optimal, direct.fraction_optimal);
  ASSERT_TRUE(result.lifetime.has_value());
  const auto direct_lifetime =
      make_lifetime_report({&segment, 1}, aging::LifetimeModel{});
  EXPECT_EQ(result.lifetime->device_lifetime_years,
            direct_lifetime.device_lifetime_years);
  EXPECT_EQ(result.lifetime->cell_lifetime.mean(),
            direct_lifetime.cell_lifetime.mean());
}

TEST(ScenarioRun, ZeroInferencePhaseIsSkipped) {
  const char* json = R"json({
    "hardware": "baseline-accelerator",
    "baseline": {"weight_memory_bytes": 16384},
    "phases": [
      {"network": "custom_mnist", "inferences": 0},
      {"network": "custom_mnist", "inferences": 5}
    ]
  })json";
  const ScenarioResult result = run_scenario(parse_scenario(json));
  EXPECT_EQ(result.phase_labels.front(), "custom_mnist x 0");
  EXPECT_GT(result.report.total_cells, result.report.unused_cells);
}

// ---- soft deadline -----------------------------------------------------------

ScenarioSpec small_npu_scenario() {
  return parse_scenario(R"json({
    "hardware": "tpu-like-npu",
    "npu": {"array_dim": 16, "fifo_tiles": 2},
    "phases": [{"network": "custom_mnist", "inferences": 1}]
  })json");
}

TEST(ScenarioDeadline, PassedDeadlineStopsAtEntry) {
  RunScenarioOptions options;
  options.sim_cache = std::make_shared<SimCache>(std::size_t{1} << 24);
  options.deadline = std::chrono::steady_clock::now();
  EXPECT_THROW(run_scenario(small_npu_scenario(), options), DeadlineExceeded);
  EXPECT_EQ(options.sim_cache->stats().misses, 0u);  // never probed
}

// A deadline that passes during the payload build stops the run at the
// next boundary, before the duty simulation, so nothing reaches the cache.
TEST(ScenarioDeadline, DeadlineDuringPayloadBuildStopsBeforeSimulation) {
  RunScenarioOptions options;
  options.sim_cache = std::make_shared<SimCache>(std::size_t{1} << 24);
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  bool built = false;
  options.publish_encoded_rows = [&](std::shared_ptr<const sim::EncodedRows>) {
    built = true;
    std::this_thread::sleep_until(options.deadline);
  };
  EXPECT_THROW(run_scenario(small_npu_scenario(), options), DeadlineExceeded);
  EXPECT_TRUE(built);
  EXPECT_EQ(options.sim_cache->stats().misses, 1u);
  EXPECT_EQ(options.sim_cache->stats().inserts, 0u);
}

// ---- stage budgets -----------------------------------------------------------

/// Two environments (two duty segments) over one network, two regions.
ScenarioSpec two_segment_scenario() {
  return parse_scenario(R"json({
    "hardware": "tpu-like-npu",
    "npu": {"array_dim": 32, "fifo_tiles": 2},
    "aging_model": "arrhenius-nbti",
    "phases": [
      {"network": "custom_mnist", "inferences": 4,
       "environment": {"temperature_c": 85}},
      {"network": "custom_mnist", "inferences": 2}
    ],
    "regions": [
      {"name": "hot", "rows": 0.25, "policy": {"kind": "dnn-life"}},
      {"name": "cold", "rows": 0.75, "policy": {"kind": "inversion"}}
    ]
  })json");
}

/// Every number of a result, bit for bit.
std::string result_bits(const ScenarioResult& result) {
  std::ostringstream out;
  out << std::hexfloat;
  const auto stats = [&out](const util::RunningStats& s) {
    out << s.count() << ' ' << s.mean() << ' ' << s.variance() << ' '
        << s.min() << ' ' << s.max() << '\n';
  };
  const aging::AgingReport& report = result.report;
  out << report.total_cells << ' ' << report.unused_cells << ' '
      << report.fraction_optimal << '\n';
  stats(report.snm_stats);
  stats(report.duty_stats);
  for (std::size_t bin = 0; bin < report.snm_histogram.bin_count(); ++bin)
    out << report.snm_histogram.count_in_bin(bin) << ' ';
  out << '\n';
  for (const aging::RegionAging& region : report.regions) {
    out << region.name << ' ' << region.fraction_optimal << '\n';
    stats(region.snm_stats);
    stats(region.duty_stats);
  }
  if (result.lifetime) {
    out << result.lifetime->device_lifetime_years << ' '
        << result.lifetime->improvement_over_worst_case << ' '
        << result.lifetime->fraction_of_ideal << '\n';
    stats(result.lifetime->cell_lifetime);
    for (const aging::RegionLifetime& region : result.lifetime->regions) {
      out << region.name << ' ' << region.device_lifetime_years << '\n';
      stats(region.cell_lifetime);
    }
  }
  return out.str();
}

/// Logs, in order, every stage-budget request of a run with options() —
/// "budget" before the duty state reached the options' cache,
/// "budget+cached" after — and every payload publish, keeping the last
/// published artifact. Each request is answered with `answer`.
struct StageLog {
  StageLog() = default;
  StageLog(const StageLog&) = delete;  // the callbacks hold its address
  StageLog& operator=(const StageLog&) = delete;

  std::vector<std::string> events;
  std::shared_ptr<const sim::EncodedRows> published;

  RunScenarioOptions options(unsigned answer) {
    RunScenarioOptions options;
    options.sim_cache = std::make_shared<SimCache>(std::size_t{1} << 26);
    options.stage_threads = [this, answer,
                             cache = options.sim_cache.get()](unsigned own) {
      EXPECT_EQ(own, 1u);  // the spec's own threads
      events.push_back(cache->stats().inserts == 0 ? "budget"
                                                   : "budget+cached");
      return answer;
    };
    options.publish_encoded_rows =
        [this](std::shared_ptr<const sim::EncodedRows> rows) {
          events.push_back("publish");
          published = std::move(rows);
        };
    return options;
  }
};

// One network, two phases: one build. The build's budget comes before its
// publish, the duty simulation's before the state is committed, and both
// reports' after; the lifetime report is last (a dormant run, below, has
// no lifetime report and asks one budget less).
TEST(ScenarioStageBudget, AskedOncePerBuildThenSimulationThenEachReport) {
  StageLog log;
  run_scenario(two_segment_scenario(), log.options(1));
  EXPECT_EQ(log.events,
            (std::vector<std::string>{"budget", "publish", "budget",
                                      "budget+cached", "budget+cached"}));

  // Prebuilt payloads: nothing is built, so no build budget is asked.
  StageLog prebuilt;
  RunScenarioOptions options = prebuilt.options(1);
  options.lookup_encoded_rows = [&log](const std::string&) {
    return log.published;
  };
  run_scenario(two_segment_scenario(), options);
  EXPECT_EQ(prebuilt.events, (std::vector<std::string>{
                                 "budget", "budget+cached", "budget+cached"}));

  StageLog dormant;
  ScenarioSpec spec = two_segment_scenario();
  for (ScenarioPhaseSpec& phase : spec.phases) phase.inferences = 0;
  EXPECT_FALSE(run_scenario(spec, dormant.options(1)).lifetime.has_value());
  EXPECT_EQ(dormant.events, (std::vector<std::string>{
                                "budget", "publish", "budget", "budget+cached"}));
}

TEST(ScenarioStageBudget, CacheHitAsksOnlyForTheReportBudgets) {
  StageLog log;
  const RunScenarioOptions options = log.options(1);
  run_scenario(two_segment_scenario(), options);
  log.events.clear();
  run_scenario(two_segment_scenario(), options);
  EXPECT_EQ(options.sim_cache->stats().hits, 1u);
  EXPECT_EQ(log.events,
            (std::vector<std::string>{"budget+cached", "budget+cached"}));
}

// Budgets move wall time only: any answer (0 = hardware) gives the same
// bits as the plain run, with or without the callback.
TEST(ScenarioStageBudget, ResultsAreBitIdenticalForAnyAnswer) {
  const std::string plain = result_bits(run_scenario(two_segment_scenario()));
  for (const unsigned answer : {1u, 3u, 0u}) {
    SCOPED_TRACE(::testing::Message() << "stage budget " << answer);
    StageLog log;
    EXPECT_EQ(result_bits(run_scenario(two_segment_scenario(),
                                       log.options(answer))),
              plain);
    EXPECT_EQ(log.events.size(), 5u);
  }
}

}  // namespace
}  // namespace dnnlife::core
