// Tests for core::ScenarioGenerator: exact grid enumeration and axis
// coverage, deterministic (and hash-pinned) document materialisation,
// seeded jitter, override routing into the parsed specs, and the strict
// spec error paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/scenario_generator.hpp"
#include "core/scenario_suite.hpp"
#include "util/hash.hpp"

namespace dnnlife::core {
namespace {

namespace fs = std::filesystem;

constexpr const char* kBase =
    "  \"base\": {\n"
    "    \"hardware\": \"tpu-like-npu\",\n"
    "    \"npu\": {\"array_dim\": 32, \"fifo_tiles\": 2},\n"
    "    \"phases\": [{\"network\": \"custom_mnist\", \"inferences\": 2}]\n"
    "  }";

std::string grid_spec() {
  return std::string("{\n  \"name\": \"grid\",\n") + kBase + ",\n" +
         "  \"axes\": [\n"
         "    {\"parameter\": \"temperature_c\", \"values\": [25, 55, 85]},\n"
         "    {\"parameter\": \"policy\", \"values\": [\"no-mitigation\", "
         "\"inversion\"]},\n"
         "    {\"parameter\": \"aging_model\", \"values\": [\"pbti-hci\"]},\n"
         "    {\"parameter\": \"aging_model_params.recovery_floor\", "
         "\"values\": [0.0, 0.25]}\n"
         "  ]\n}\n";
}

std::string jitter_spec(std::uint64_t seed) {
  return std::string("{\n  \"name\": \"jit\",\n") + kBase + ",\n" +
         "  \"axes\": [\n"
         "    {\"parameter\": \"temperature_c\", \"values\": [40, 90]},\n"
         "    {\"parameter\": \"vdd\", \"values\": [0.95, 1.05]}\n"
         "  ],\n"
         "  \"jitter\": {\"seed\": " + std::to_string(seed) + ", "
         "\"samples\": 3, \"temperature_c\": 5.0, \"vdd\": 0.02}\n}\n";
}

std::uint64_t corpus_hash(const std::vector<GeneratedScenario>& points) {
  std::uint64_t hash = 0;
  for (const GeneratedScenario& point : points) {
    hash = hash * 0x100000001b3ULL ^ util::fnv1a64(point.name);
    hash = hash * 0x100000001b3ULL ^ util::fnv1a64(point.document);
  }
  return hash;
}

TEST(ScenarioGenerator, GridSizeAndAxisCoverageAreExact) {
  const ScenarioGenerator generator = ScenarioGenerator::parse(grid_spec());
  EXPECT_EQ(generator.grid_size(), 3u * 2u * 1u * 2u);
  EXPECT_EQ(generator.jitter_samples(), 1u);
  EXPECT_EQ(generator.point_count(), 12u);

  const std::vector<GeneratedScenario> points = generator.generate();
  ASSERT_EQ(points.size(), 12u);

  // Every (parameter, value) combination appears exactly the expected
  // number of times, and every full assignment tuple is unique.
  std::map<std::pair<std::string, std::string>, int> counts;
  std::set<std::vector<std::pair<std::string, std::string>>> tuples;
  std::set<std::string> names;
  for (const GeneratedScenario& point : points) {
    ASSERT_EQ(point.assignments.size(), 4u);
    for (const auto& assignment : point.assignments) ++counts[assignment];
    EXPECT_TRUE(tuples.insert(point.assignments).second);
    EXPECT_TRUE(names.insert(point.name).second) << point.name;
  }
  EXPECT_EQ((counts[{"temperature_c", "25"}]), 4);
  EXPECT_EQ((counts[{"temperature_c", "55"}]), 4);
  EXPECT_EQ((counts[{"temperature_c", "85"}]), 4);
  EXPECT_EQ((counts[{"policy", "no-mitigation"}]), 6);
  EXPECT_EQ((counts[{"policy", "inversion"}]), 6);
  EXPECT_EQ((counts[{"aging_model", "pbti-hci"}]), 12);
  EXPECT_EQ((counts[{"aging_model_params.recovery_floor", "0"}]), 6);
  EXPECT_EQ((counts[{"aging_model_params.recovery_floor", "0.25"}]), 6);

  // The overrides really land in the parsed specs: environment on every
  // phase, policy on the regions, params routed through the registry path.
  for (const GeneratedScenario& point : points) {
    EXPECT_EQ(point.spec.name, point.name);
    EXPECT_EQ(point.spec.aging_model, "pbti-hci");
    ASSERT_EQ(point.spec.phases.size(), 1u);
    const double temperature = std::stod(point.assignments[0].second);
    EXPECT_EQ(point.spec.phases[0].environment.temperature_c, temperature);
    ASSERT_EQ(point.spec.regions.size(), 1u);
    ASSERT_TRUE(point.spec.aging_model_params.contains("recovery_floor"));
    EXPECT_EQ(point.spec.aging_model_params.at("recovery_floor"),
              std::stod(point.assignments[3].second));
  }

  // Names are zero-padded in enumeration order, so any lexicographic sort
  // (a directory glob, say) reproduces the generation order.
  for (std::size_t i = 0; i + 1 < points.size(); ++i)
    EXPECT_LT(points[i].name, points[i + 1].name);
  EXPECT_EQ(points[0].name,
            "grid-0000-temperature_c=25-policy=no-mitigation-"
            "aging_model=pbti-hci-recovery_floor=0");
}

TEST(ScenarioGenerator, GenerationIsDeterministicAcrossRuns) {
  const ScenarioGenerator a = ScenarioGenerator::parse(jitter_spec(42));
  const ScenarioGenerator b = ScenarioGenerator::parse(jitter_spec(42));
  const auto points_a = a.generate();
  const auto points_b = b.generate();
  ASSERT_EQ(points_a.size(), points_b.size());
  for (std::size_t i = 0; i < points_a.size(); ++i) {
    EXPECT_EQ(points_a[i].name, points_b[i].name);
    EXPECT_EQ(points_a[i].document, points_b[i].document);
  }
}

TEST(ScenarioGenerator, JitterIsSeededBoundedAndHashPinned) {
  const ScenarioGenerator generator =
      ScenarioGenerator::parse(jitter_spec(42));
  EXPECT_EQ(generator.point_count(), 2u * 2u * 3u);
  const std::vector<GeneratedScenario> points = generator.generate();
  ASSERT_EQ(points.size(), 12u);

  std::set<double> temperatures;
  for (const GeneratedScenario& point : points) {
    const double grid_temperature = std::stod(point.assignments[0].second);
    const double grid_vdd = std::stod(point.assignments[1].second);
    const auto& environment = point.spec.phases[0].environment;
    EXPECT_GE(environment.temperature_c, grid_temperature - 5.0);
    EXPECT_LE(environment.temperature_c, grid_temperature + 5.0);
    EXPECT_GE(environment.vdd, grid_vdd - 0.02);
    EXPECT_LE(environment.vdd, grid_vdd + 0.02);
    temperatures.insert(environment.temperature_c);
  }
  // The three replicates of a grid point really differ.
  EXPECT_GT(temperatures.size(), 4u);

  // A different seed moves the points; the same seed is pinned below.
  const auto reseeded = ScenarioGenerator::parse(jitter_spec(43)).generate();
  bool any_difference = false;
  for (std::size_t i = 0; i < points.size(); ++i)
    any_difference |= points[i].document != reseeded[i].document;
  EXPECT_TRUE(any_difference);

  // Hash-pinned corpus: CounterRng jitter and the shortest-round-trip
  // number writer are platform-independent, so these exact document bytes
  // are part of the cross-machine sharding contract. If this pin moves,
  // in-flight distributed sweeps would no longer merge.
  EXPECT_EQ(corpus_hash(points), 0xfc1a3e1ce41df2e2ULL);
}

TEST(ScenarioGenerator, MaterializeRoundTripsThroughTheSuiteLoader) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "dnnlife_generator_materialize";
  fs::remove_all(dir);
  const ScenarioGenerator generator = ScenarioGenerator::parse(grid_spec());
  const std::vector<std::string> paths = generator.materialize(dir.string());
  ASSERT_EQ(paths.size(), 12u);
  for (const std::string& path : paths) EXPECT_TRUE(fs::is_regular_file(path));

  // Loading the materialised directory reproduces the in-memory suite:
  // same order, same names, same manifest hash — the property that lets
  // one machine run from --spec and another from the files.
  ScenarioSuite in_memory;
  for (GeneratedScenario& point : generator.generate())
    in_memory.add(SuiteEntry{point.name + ".json", std::move(point.spec),
                             std::move(point.document)});
  const ScenarioSuite from_disk = ScenarioSuite::from_directory(dir.string());
  ASSERT_EQ(from_disk.size(), in_memory.size());
  for (std::size_t i = 0; i < from_disk.size(); ++i)
    EXPECT_EQ(from_disk.entries()[i].spec.name,
              in_memory.entries()[i].spec.name);
  EXPECT_EQ(from_disk.manifest_hash(), in_memory.manifest_hash());
  fs::remove_all(dir);
}

TEST(ScenarioGenerator, SpecErrorsAreStrictAndNamed) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    try {
      ScenarioGenerator::parse(text);
      FAIL() << "accepted: " << text;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << text << " -> " << error.what();
    }
  };
  const std::string base_block = std::string(kBase);
  expect_error("{\"name\": \"x\", \"base\": {}, \"oops\": 1}",
               "unknown member 'oops'");
  expect_error("{\"base\": {}}", "missing JSON member 'name'");
  expect_error("{\"name\": \"\", \"base\": {}}", "must not be empty");
  expect_error("{\"name\": \"x\", \"base\": 3}", "must be a scenario object");
  expect_error("{\"name\": \"x\"," + base_block +
                   ", \"axes\": [{\"parameter\": \"voltage\", "
                   "\"values\": [1]}]}",
               "unknown sweep axis parameter 'voltage'");
  expect_error("{\"name\": \"x\"," + base_block +
                   ", \"axes\": [{\"parameter\": \"vdd\", \"values\": []}]}",
               "at least one value");
  expect_error("{\"name\": \"x\"," + base_block +
                   ", \"axes\": [{\"parameter\": \"vdd\", \"values\": [1]}, "
                   "{\"parameter\": \"vdd\", \"values\": [2]}]}",
               "duplicate sweep axis 'vdd'");
  expect_error("{\"name\": \"x\"," + base_block +
                   ", \"axes\": [{\"parameter\": \"policy\", "
                   "\"values\": [\"typo-policy\"]}]}",
               "no policy engine registered under 'typo-policy'");
  expect_error("{\"name\": \"x\"," + base_block +
                   ", \"axes\": [{\"parameter\": \"aging_model\", "
                   "\"values\": [\"missing-model\"]}]}",
               "missing-model");
  expect_error("{\"name\": \"x\"," + base_block +
                   ", \"axes\": [{\"parameter\": \"temperature_c\", "
                   "\"values\": [5000]}]}",
               "temperature_c");
  // The jitter seed is mandatory: an implicit seed would break the
  // cross-machine determinism the shard manifest relies on.
  expect_error("{\"name\": \"x\"," + base_block +
                   ", \"jitter\": {\"samples\": 2}}",
               "missing JSON member 'seed'");
  // A base without phases cannot take environment overrides.
  try {
    ScenarioGenerator::parse(
        "{\"name\": \"x\", \"base\": {\"threads\": 1}, "
        "\"axes\": [{\"parameter\": \"vdd\", \"values\": [1.0]}]}")
        .generate();
    FAIL() << "phase-less base accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("non-empty 'phases'"),
              std::string::npos);
  }
  // An invalid generated point names itself.
  try {
    ScenarioGenerator::parse(
        "{\"name\": \"x\"," + base_block +
        ", \"axes\": [{\"parameter\": "
        "\"aging_model_params.no_such_knob\", \"values\": [1.0]}]}")
        .generate();
    FAIL() << "unknown knob accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("generated scenario 'x-0000"), std::string::npos)
        << message;
    EXPECT_NE(message.find("no_such_knob"), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace dnnlife::core
