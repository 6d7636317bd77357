// Tests for the scenario sweep layer: directory globbing, parallel
// execution with per-scenario thread budgets, per-outcome error capture,
// CSV/JSON aggregation — and the aging_model_params routing the suite's
// documents rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "aging/model_registry.hpp"
#include "core/scenario_suite.hpp"

namespace dnnlife::core {
namespace {

namespace fs = std::filesystem;

/// A fast scenario document (tiny NPU FIFO, few inferences).
std::string small_scenario(const std::string& name,
                           const std::string& extra = "") {
  return "{\n"
         "  \"name\": \"" + name + "\",\n"
         "  \"hardware\": \"tpu-like-npu\",\n"
         "  \"npu\": {\"array_dim\": 32, \"fifo_tiles\": 2},\n"
         "  \"phases\": [{\"network\": \"custom_mnist\", \"inferences\": 4}]" +
         (extra.empty() ? "" : ",\n  " + extra) + "\n}\n";
}

class ScenarioSuiteFixture : public ::testing::Test {
 protected:
  ScenarioSuiteFixture() {
    dir_ = fs::path(::testing::TempDir()) /
           ("dnnlife_suite_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  ~ScenarioSuiteFixture() override {
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  std::string write(const std::string& file, const std::string& text) {
    const fs::path path = dir_ / file;
    std::ofstream out(path);
    out << text;
    return path.string();
  }

  fs::path dir_;
};

TEST_F(ScenarioSuiteFixture, ReadFailureIsNamedNotAParseError) {
  // Reading a directory fails mid-read (EISDIR): the error must name the
  // read failure, not pass an empty prefix on to the JSON parser.
  try {
    (void)ScenarioSuite::from_files({dir_.string()});
    FAIL() << "a directory loaded as a scenario file";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("stream failed mid-read"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(ScenarioSuiteFixture, FromDirectoryGlobsSortedJsonFiles) {
  write("b_second.json", small_scenario("second"));
  write("a_first.json", small_scenario("first"));
  write("notes.txt", "not a scenario");
  const ScenarioSuite suite = ScenarioSuite::from_directory(dir_.string());
  ASSERT_EQ(suite.size(), 2u);
  EXPECT_EQ(suite.entries()[0].spec.name, "first");
  EXPECT_EQ(suite.entries()[1].spec.name, "second");
}

TEST_F(ScenarioSuiteFixture, ParseErrorNamesTheFile) {
  write("broken.json", "{\"name\": \"x\", \"phases\": [], \"oops\": 1}");
  try {
    ScenarioSuite::from_directory(dir_.string());
    FAIL() << "broken document accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("broken.json"),
              std::string::npos);
  }
}

TEST_F(ScenarioSuiteFixture, EmptyDirectoryThrows) {
  EXPECT_THROW(ScenarioSuite::from_directory(dir_.string()),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSuite::from_directory((dir_ / "missing").string()),
               std::invalid_argument);
}

TEST_F(ScenarioSuiteFixture, ParallelRunMatchesSerialBitwise) {
  write("a.json", small_scenario("a"));
  write("b.json", small_scenario(
                      "b", "\"regions\": [{\"name\": \"all\", \"rows\": 1.0, "
                           "\"policy\": {\"kind\": \"inversion\"}}]"));
  write("c.json", small_scenario("c", "\"aging_model\": \"arrhenius-nbti\""));
  const ScenarioSuite suite = ScenarioSuite::from_directory(dir_.string());
  SuiteRunOptions serial;
  serial.jobs = 1;
  SuiteRunOptions parallel;
  parallel.jobs = 3;
  parallel.threads_per_scenario = 2;
  const auto serial_outcomes = suite.run(serial);
  const auto parallel_outcomes = suite.run(parallel);
  ASSERT_EQ(serial_outcomes.size(), 3u);
  ASSERT_EQ(parallel_outcomes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(serial_outcomes[i].ok) << serial_outcomes[i].error;
    ASSERT_TRUE(parallel_outcomes[i].ok) << parallel_outcomes[i].error;
    EXPECT_EQ(serial_outcomes[i].name, parallel_outcomes[i].name);
    const ScenarioResult& s = *serial_outcomes[i].result;
    const ScenarioResult& p = *parallel_outcomes[i].result;
    // Simulation and report evaluation are thread-count-invariant, so the
    // sweep is too — bit for bit.
    EXPECT_EQ(s.report.snm_stats.mean(), p.report.snm_stats.mean());
    EXPECT_EQ(s.report.snm_stats.variance(), p.report.snm_stats.variance());
    EXPECT_EQ(s.report.duty_stats.mean(), p.report.duty_stats.mean());
    ASSERT_TRUE(s.lifetime.has_value());
    ASSERT_TRUE(p.lifetime.has_value());
    EXPECT_EQ(s.lifetime->device_lifetime_years,
              p.lifetime->device_lifetime_years);
  }
}

TEST_F(ScenarioSuiteFixture, RuntimeErrorsAreCapturedPerOutcome) {
  write("good.json", small_scenario("good"));
  write("bad.json",
        small_scenario("bad", "\"lifetime\": {\"snm_failure_threshold\": 0.5}"));
  const ScenarioSuite suite = ScenarioSuite::from_directory(dir_.string());
  std::vector<std::size_t> completions;
  SuiteRunOptions options;
  options.jobs = 2;
  options.progress = [&](const SuiteProgress& progress) {
    completions.push_back(progress.completed);
    EXPECT_EQ(progress.total, 2u);
    EXPECT_NE(progress.outcome, nullptr);
  };
  const auto outcomes = suite.run(options);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok);  // bad.json sorts first
  EXPECT_NE(outcomes[0].error.find("snm_failure_threshold"),
            std::string::npos);
  EXPECT_FALSE(outcomes[0].result.has_value());
  EXPECT_TRUE(outcomes[1].ok) << outcomes[1].error;
  // Progress fired once per scenario with a monotone completion count.
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], 1u);
  EXPECT_EQ(completions[1], 2u);
}

TEST_F(ScenarioSuiteFixture, CsvAndJsonAggregation) {
  write("one.json", small_scenario("one"));
  write("two_bad.json",
        small_scenario("two", "\"lifetime\": {\"snm_failure_threshold\": 0.5}"));
  const ScenarioSuite suite = ScenarioSuite::from_directory(dir_.string());
  const auto outcomes = suite.run({});
  const std::vector<SuiteRecord> records = make_suite_records(outcomes);
  SuiteSummaryInfo info;
  info.total_scenarios = outcomes.size();

  const std::string csv_path = (dir_ / "summary.csv").string();
  write_suite_csv(csv_path, records, info);
  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.is_open());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(csv, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + one row per scenario
  EXPECT_NE(lines[0].find("device_lifetime_years"), std::string::npos);
  EXPECT_NE(lines[1].find("one,ok"), std::string::npos);
  EXPECT_NE(lines[2].find("two,error"), std::string::npos);

  const std::string json = suite_summary_json(records, info);
  EXPECT_NE(json.find("\"scenarios\": ["), std::string::npos);
  EXPECT_NE(json.find("\"failures\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"min_device_lifetime_years\""), std::string::npos);
  // The failed scenario's metrics are null, not fabricated numbers.
  EXPECT_NE(json.find("\"device_lifetime_years\": null"), std::string::npos);
}

TEST_F(ScenarioSuiteFixture, InfiniteLifetimeEmitsNullNotBareInf) {
  // A fully power-gated scenario legitimately never fails: every cell's
  // years-to-failure is +inf. The JSON summary must degrade those metrics
  // to null — a bare "inf" token is not JSON.
  write("gated.json",
        "{\n"
        "  \"name\": \"gated\",\n"
        "  \"hardware\": \"tpu-like-npu\",\n"
        "  \"npu\": {\"array_dim\": 32, \"fifo_tiles\": 2},\n"
        "  \"phases\": [{\"network\": \"custom_mnist\", \"inferences\": 4,\n"
        "               \"environment\": {\"activity_scale\": 0.0}}]\n"
        "}\n");
  const ScenarioSuite suite = ScenarioSuite::from_directory(dir_.string());
  const auto outcomes = suite.run({});
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
  ASSERT_TRUE(outcomes[0].result->lifetime.has_value());
  EXPECT_TRUE(std::isinf(outcomes[0].result->lifetime->device_lifetime_years));
  const std::vector<SuiteRecord> records = make_suite_records(outcomes);
  SuiteSummaryInfo info;
  info.total_scenarios = outcomes.size();
  const std::string json = suite_summary_json(records, info);
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_NE(json.find("\"device_lifetime_years\": null"), std::string::npos);
  const std::string csv_path = (dir_ / "gated.csv").string();
  write_suite_csv(csv_path, records, info);
  std::ifstream csv(csv_path);
  std::stringstream buffer;
  buffer << csv.rdbuf();
  EXPECT_EQ(buffer.str().find("inf"), std::string::npos);
}

// ---- aging_model_params routing ----------------------------------------------

TEST_F(ScenarioSuiteFixture, ModelParamsChangeThePhysics) {
  write("default.json", small_scenario("default-floor",
                                       "\"aging_model\": \"pbti-hci\""));
  write("tuned.json",
        small_scenario("zero-floor",
                       "\"aging_model\": \"pbti-hci\",\n  "
                       "\"aging_model_params\": {\"recovery_floor\": 0.0}"));
  const ScenarioSuite suite = ScenarioSuite::from_directory(dir_.string());
  const auto outcomes = suite.run({});
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
  ASSERT_TRUE(outcomes[1].ok) << outcomes[1].error;
  // Without the residual stress floor, balanced cells age strictly less.
  EXPECT_LT(outcomes[1].result->report.snm_stats.mean(),
            outcomes[0].result->report.snm_stats.mean());
}

TEST(ScenarioModelParams, UnknownKeyFailsAtParseNamingTheKnobs) {
  const std::string text =
      "{\"phases\": [{\"network\": \"custom_mnist\"}],\n"
      " \"aging_model\": \"arrhenius-nbti\",\n"
      " \"aging_model_params\": {\"actvation_energy_ev\": 0.1}}";
  try {
    parse_scenario(text);
    FAIL() << "typo'd knob accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("actvation_energy_ev"), std::string::npos);
    EXPECT_NE(message.find("activation_energy_ev"), std::string::npos);
    EXPECT_NE(message.find("arrhenius-nbti"), std::string::npos);
  }
}

TEST(ScenarioModelParams, RegistryRoutesKnobsIntoTheModel) {
  using namespace dnnlife::aging;
  // A hotter activation energy must age a hot phase faster, and leave the
  // nominal point untouched (the Arrhenius factor is exactly 1 there).
  const auto standard = make_aging_model("arrhenius-nbti");
  const auto tuned = make_aging_model("arrhenius-nbti", SnmParams{},
                                      {{"activation_energy_ev", 0.2}});
  EnvironmentSpec hot;
  hot.temperature_c = 95.0;
  EXPECT_EQ(tuned->degradation(0.8, 7.0, EnvironmentSpec{}),
            standard->degradation(0.8, 7.0, EnvironmentSpec{}));
  EXPECT_GT(tuned->degradation(0.8, 7.0, hot),
            standard->degradation(0.8, 7.0, hot));
  // Out-of-range knob values hit the model's own contract checks.
  EXPECT_THROW(make_aging_model("pbti-hci", SnmParams{},
                                {{"recovery_floor", 1.5}}),
               std::invalid_argument);
  // The knob-free default engine rejects every key.
  EXPECT_THROW(make_aging_model(kDefaultAgingModel, SnmParams{},
                                {{"anything", 1.0}}),
               std::invalid_argument);
}

TEST(ScenarioModelParams, LegacyFactoriesRejectParams) {
  using namespace dnnlife::aging;
  struct FlatModel final : PowerLawDeviceModel {
    FlatModel() : PowerLawDeviceModel(7.0, 1.0 / 6.0) {}
    std::string_view name() const noexcept override { return "test-flat"; }
    double amplitude(double, const EnvironmentSpec&) const override {
      return 11.0;
    }
  };
  auto& registry = AgingModelRegistry::instance();
  if (!registry.contains("test-flat"))
    registry.add("test-flat", [](const SnmParams&,
                                 const AgingModelParams& params) {
      ModelParamReader(params, "test-flat").finish();
      return std::make_unique<FlatModel>();
    });
  EXPECT_NO_THROW(make_aging_model("test-flat"));
  try {
    make_aging_model("test-flat", SnmParams{}, {{"knob", 1.0}});
    FAIL() << "a knob-free factory accepted params";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("knob"), std::string::npos);
  }
}

}  // namespace
}  // namespace dnnlife::core
