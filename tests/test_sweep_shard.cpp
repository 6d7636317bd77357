// Property tests for the distributed-sweep layer: shard partitioning
// (disjoint + complete for randomized sizes), byte-identical shard/merge
// round trips against the unsharded run on a generated >= 100-point grid,
// deterministic progress reporting and wall-clock capture under jobs > 1,
// and the merge tool's validation of mismatched / overlapping /
// incomplete shard sets in any CLI order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario_generator.hpp"
#include "core/scenario_suite.hpp"
#include "core/sweep_merge.hpp"
#include "util/rng.hpp"

namespace dnnlife::core {
namespace {

namespace fs = std::filesystem;

// ---- shard partition properties ----------------------------------------------

TEST(SweepShard, RandomizedPartitionsAreDisjointAndComplete) {
  util::Xoshiro256ss rng(2026);
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = rng.next_below(400);
    const unsigned count = 1 + static_cast<unsigned>(rng.next_below(16));
    std::vector<char> covered(n, 0);
    std::size_t covered_count = 0;
    for (unsigned index = 1; index <= count; ++index) {
      const std::vector<std::size_t> selection =
          ScenarioSuite::shard_selection(n, SuiteShard{index, count});
      // Selections within a shard: the arithmetic progression index-1,
      // index-1+count, ... — sorted and in range.
      for (std::size_t slot = 0; slot < selection.size(); ++slot) {
        ASSERT_LT(selection[slot], n);
        ASSERT_EQ(selection[slot], (index - 1) + slot * count);
        ASSERT_FALSE(covered[selection[slot]])
            << "overlap at " << selection[slot];
        covered[selection[slot]] = 1;
        ++covered_count;
      }
      // Fair split: shard sizes differ by at most one.
      EXPECT_LE(selection.size(), (n + count - 1) / count);
      EXPECT_GE(selection.size(), n / count);
    }
    EXPECT_EQ(covered_count, n) << "union must cover the whole suite";
  }
}

TEST(SweepShard, InvalidShardsAreRejected) {
  EXPECT_THROW(ScenarioSuite::shard_selection(10, SuiteShard{1, 0}),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSuite::shard_selection(10, SuiteShard{0, 3}),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSuite::shard_selection(10, SuiteShard{4, 3}),
               std::invalid_argument);
  // More shards than scenarios is legal: the surplus shards are empty.
  EXPECT_TRUE(
      ScenarioSuite::shard_selection(2, SuiteShard{3, 4}).empty());
}

// ---- generated-grid fixtures -------------------------------------------------

/// A >= 100-point grid of fast scenarios (one inference on a tiny NPU).
/// activity 0 points exercise the infinite-lifetime (null metrics) path.
std::string grid_spec() {
  return R"({
  "name": "big",
  "base": {
    "hardware": "tpu-like-npu",
    "npu": {"array_dim": 32, "fifo_tiles": 2},
    "phases": [{"network": "custom_mnist", "inferences": 1}]
  },
  "axes": [
    {"parameter": "temperature_c", "values": [25, 55, 85, 105, 125]},
    {"parameter": "vdd", "values": [0.95, 1.0]},
    {"parameter": "activity_scale", "values": [0.0, 1.0]},
    {"parameter": "policy", "values": ["no-mitigation", "inversion"]}
  ],
  "jitter": {"seed": 11, "samples": 3, "temperature_c": 4.0}
})";
}

ScenarioSuite generated_suite() {
  ScenarioSuite suite;
  for (GeneratedScenario& point :
       ScenarioGenerator::parse(grid_spec()).generate())
    suite.add(SuiteEntry{point.name + ".json", std::move(point.spec),
                         std::move(point.document)});
  return suite;
}

SuiteSummaryInfo info_of(const ScenarioSuite& suite, const SuiteShard& shard) {
  SuiteSummaryInfo info;
  info.total_scenarios = suite.size();
  info.manifest_hash = suite.manifest_hash();
  info.shard = shard;
  info.include_timing = false;  // wall clocks are the nondeterministic field
  return info;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- the headline invariant --------------------------------------------------

TEST(SweepShard, MergedShardsAreByteIdenticalToTheUnshardedRun) {
  const ScenarioSuite suite = generated_suite();
  ASSERT_GE(suite.size(), 100u) << "acceptance demands a >=100-point grid";

  SuiteRunOptions serial;
  serial.jobs = 2;
  serial.threads_per_scenario = 1;
  const std::vector<SuiteOutcome> all = suite.run(serial);
  const std::vector<SuiteRecord> all_records = make_suite_records(all);
  const std::string single_json =
      suite_summary_json(all_records, info_of(suite, SuiteShard{}));

  const fs::path dir = fs::path(::testing::TempDir()) / "dnnlife_shard_merge";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path single_csv = dir / "single.csv";
  write_suite_csv(single_csv.string(), all_records,
                  info_of(suite, SuiteShard{}));

  for (const unsigned count : {2u, 3u, 5u}) {
    std::vector<SuiteSummary> shards;
    for (unsigned index = 1; index <= count; ++index) {
      const SuiteShard shard{index, count};
      SuiteRunOptions options;
      options.jobs = 2;
      options.threads_per_scenario = 1;
      options.shard = shard;
      const std::vector<SuiteOutcome> outcomes = suite.run(options);
      const std::vector<SuiteRecord> records = make_suite_records(outcomes);
      shards.push_back(parse_suite_summary(
          suite_summary_json(records, info_of(suite, shard)),
          "shard-" + std::to_string(index)));
    }
    // Any CLI order must merge identically; feed the shards reversed.
    std::reverse(shards.begin(), shards.end());
    const SuiteSummary merged = merge_suite_summaries(std::move(shards));
    EXPECT_EQ(suite_summary_json(merged.records, merged.info), single_json)
        << "JSON merge diverged for " << count << " shards";
    const fs::path merged_csv =
        dir / ("merged-" + std::to_string(count) + ".csv");
    write_suite_csv(merged_csv.string(), merged.records, merged.info);
    EXPECT_EQ(read_file(merged_csv), read_file(single_csv))
        << "CSV merge diverged for " << count << " shards";
  }
  fs::remove_all(dir);
}

TEST(SweepShard, FailedScenariosSurviveTheMergeByteIdentically) {
  // A run-time failure (unreachable SNM threshold) must round-trip through
  // a shard summary — error message, null metrics and all.
  const std::string good =
      "{\"name\": \"good\", \"hardware\": \"tpu-like-npu\",\n"
      " \"npu\": {\"array_dim\": 32, \"fifo_tiles\": 2},\n"
      " \"phases\": [{\"network\": \"custom_mnist\", \"inferences\": 2}]}";
  const std::string bad =
      "{\"name\": \"bad\", \"hardware\": \"tpu-like-npu\",\n"
      " \"npu\": {\"array_dim\": 32, \"fifo_tiles\": 2},\n"
      " \"lifetime\": {\"snm_failure_threshold\": 0.5},\n"
      " \"phases\": [{\"network\": \"custom_mnist\", \"inferences\": 2}]}";
  ScenarioSuite suite;
  suite.add(SuiteEntry{"bad.json", parse_scenario(bad), bad});
  suite.add(SuiteEntry{"good.json", parse_scenario(good), good});

  SuiteRunOptions options;
  const std::vector<SuiteRecord> all_records =
      make_suite_records(suite.run(options));
  ASSERT_FALSE(all_records[0].ok);
  const std::string single =
      suite_summary_json(all_records, info_of(suite, SuiteShard{}));

  std::vector<SuiteSummary> shards;
  for (unsigned index = 1; index <= 2; ++index) {
    options.shard = SuiteShard{index, 2};
    const std::vector<SuiteRecord> records =
        make_suite_records(suite.run(options));
    shards.push_back(parse_suite_summary(
        suite_summary_json(records, info_of(suite, options.shard)), ""));
  }
  const SuiteSummary merged = merge_suite_summaries(std::move(shards));
  EXPECT_EQ(suite_summary_json(merged.records, merged.info), single);
  EXPECT_FALSE(merged.records[0].ok);
  EXPECT_NE(merged.records[0].error.find("snm_failure_threshold"),
            std::string::npos);
}

// ---- progress & wall-clock under jobs > 1 ------------------------------------

TEST(SweepShard, ProgressIsDeterministicAndTimedUnderParallelJobs) {
  ScenarioSuite suite;
  for (int i = 0; i < 8; ++i) {
    const std::string document =
        "{\"name\": \"p" + std::to_string(i) +
        "\", \"hardware\": \"tpu-like-npu\",\n"
        " \"npu\": {\"array_dim\": 32, \"fifo_tiles\": 2},\n"
        " \"phases\": [{\"network\": \"custom_mnist\", \"inferences\": 2}]}";
    suite.add(SuiteEntry{"p" + std::to_string(i) + ".json",
                         parse_scenario(document), document});
  }
  std::vector<std::size_t> completions;
  std::vector<std::string> reported;
  SuiteRunOptions options;
  options.jobs = 4;
  options.progress = [&](const SuiteProgress& progress) {
    // The callback contract: serialized, monotone, total = this run's
    // share, outcome fully populated (timing included) at call time.
    completions.push_back(progress.completed);
    EXPECT_EQ(progress.total, 8u);
    ASSERT_NE(progress.outcome, nullptr);
    EXPECT_GT(progress.outcome->wall_seconds, 0.0);
    reported.push_back(progress.outcome->name);
  };
  const std::vector<SuiteOutcome> outcomes = suite.run(options);

  ASSERT_EQ(completions.size(), 8u);
  for (std::size_t i = 0; i < completions.size(); ++i)
    EXPECT_EQ(completions[i], i + 1) << "completed count must be monotone";
  std::sort(reported.begin(), reported.end());
  EXPECT_EQ(std::set<std::string>(reported.begin(), reported.end()).size(),
            8u)
      << "every scenario reports exactly once";
  // Outcomes land in suite order with their global indices and wall clocks
  // regardless of completion order.
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].index, i);
    EXPECT_EQ(outcomes[i].name, "p" + std::to_string(i));
    EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    EXPECT_GT(outcomes[i].wall_seconds, 0.0);
    EXPECT_TRUE(std::isfinite(outcomes[i].wall_seconds));
  }
}

// ---- merge validation --------------------------------------------------------

std::string entry_json(std::size_t index, const std::string& name) {
  return "{\"index\": " + std::to_string(index) + ", \"file\": \"" + name +
         ".json\", \"scenario\": \"" + name +
         "\", \"status\": \"ok\", \"total_cells\": 64, \"unused_cells\": 0, "
         "\"snm_mean_pct\": 12.5, \"snm_max_pct\": 14.0, \"duty_mean\": 0.5, "
         "\"fraction_optimal\": 0.75, \"device_lifetime_years\": 10.0, "
         "\"improvement_over_worst_case\": 2.0, \"fraction_of_ideal\": 0.1}";
}

std::string shard_json(const std::string& hash, std::size_t total,
                       unsigned index, unsigned count,
                       const std::vector<std::size_t>& indices) {
  std::string entries;
  for (std::size_t i = 0; i < indices.size(); ++i)
    entries += (i == 0 ? "" : ",\n    ") +
               entry_json(indices[i], "s" + std::to_string(indices[i]));
  return "{\n  \"manifest\": {\"hash\": \"" + hash +
         "\", \"scenarios\": " + std::to_string(total) +
         "},\n  \"shard\": {\"index\": " + std::to_string(index) +
         ", \"count\": " + std::to_string(count) +
         "},\n  \"scenarios\": [\n    " + entries +
         "\n  ],\n  \"summary\": {\"scenarios\": " +
         std::to_string(indices.size()) + ", \"failures\": 0}\n}\n";
}

void expect_merge_error(std::vector<std::string> documents,
                        const std::string& needle) {
  std::vector<SuiteSummary> shards;
  for (std::size_t i = 0; i < documents.size(); ++i)
    shards.push_back(parse_suite_summary(documents[i],
                                         "file" + std::to_string(i)));
  try {
    merge_suite_summaries(std::move(shards));
    FAIL() << "merge accepted; expected error with: " << needle;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(SweepMerge, RejectsInconsistentShardSets) {
  const std::string h = "0123456789abcdef";
  // Two clean shards of a 4-scenario sweep merge fine, in either order.
  for (const bool reversed : {false, true}) {
    std::vector<SuiteSummary> shards;
    shards.push_back(parse_suite_summary(shard_json(h, 4, 1, 2, {0, 2}), "a"));
    shards.push_back(parse_suite_summary(shard_json(h, 4, 2, 2, {1, 3}), "b"));
    if (reversed) std::swap(shards[0], shards[1]);
    const SuiteSummary merged = merge_suite_summaries(std::move(shards));
    ASSERT_EQ(merged.records.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(merged.records[i].index, i);
    EXPECT_EQ(merged.info.shard.count, 1u);
    EXPECT_EQ(merged.info.manifest_hash, h);
  }

  expect_merge_error({}, "no shard summaries");
  expect_merge_error({shard_json(h, 4, 1, 2, {0, 2}),
                      shard_json("feedfeedfeedfeed", 4, 2, 2, {1, 3})},
                     "different sweeps");
  expect_merge_error(
      {shard_json(h, 4, 1, 2, {0, 2}), shard_json(h, 6, 2, 2, {1, 3})},
      "disagree on the sweep size");
  expect_merge_error(
      {shard_json(h, 4, 1, 2, {0, 2}), shard_json(h, 4, 2, 3, {1})},
      "disagree on the shard count");
  expect_merge_error({shard_json(h, 4, 1, 2, {0, 2}),
                      shard_json(h, 4, 1, 2, {0, 2})},
                     "duplicate shard 1/2");
  expect_merge_error({shard_json(h, 4, 1, 2, {0, 2})}, "missing shard 2/2");
  expect_merge_error(
      {shard_json(h, 4, 1, 2, {0, 2}), shard_json(h, 4, 2, 2, {1})},
      "cover 3 of 4");
  expect_merge_error(
      {shard_json(h, 4, 1, 2, {0, 0, 2}), shard_json(h, 4, 2, 2, {1, 3})},
      "appears in more than one shard");
  expect_merge_error(
      {shard_json(h, 4, 1, 2, {0, 2}), shard_json(h, 4, 2, 2, {1, 2})},
      "does not belong to shard 2");
  expect_merge_error(
      {shard_json(h, 4, 1, 2, {0, 8}), shard_json(h, 4, 2, 2, {1, 3})},
      "exceeds the sweep size");
}

TEST(SweepMerge, RejectsSummariesWithoutAManifest) {
  // The legacy (manifest-free) emitter output identifies no sweep, so it
  // cannot be merged safely.
  ScenarioSuite suite;
  const std::string document =
      "{\"name\": \"solo\", \"hardware\": \"tpu-like-npu\",\n"
      " \"npu\": {\"array_dim\": 32, \"fifo_tiles\": 2},\n"
      " \"phases\": [{\"network\": \"custom_mnist\", \"inferences\": 2}]}";
  suite.add(SuiteEntry{"solo.json", parse_scenario(document), document});
  const std::vector<SuiteOutcome> outcomes = suite.run({});
  SuiteSummaryInfo info;
  info.total_scenarios = outcomes.size();
  const std::string legacy =
      suite_summary_json(make_suite_records(outcomes), info);
  std::vector<SuiteSummary> shards;
  shards.push_back(parse_suite_summary(legacy, "legacy"));
  try {
    merge_suite_summaries(std::move(shards));
    FAIL() << "manifest-free summary merged";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("no manifest"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("legacy"), std::string::npos);
  }
}

TEST(SweepMerge, CorruptShardCoordinatesFailNamedNotTruncated) {
  // Values past 2^32 must be rejected as such — a silent unsigned
  // truncation ("count": 2^32+1 -> 1) would turn the cover validation
  // into nonsense. Implausible totals are rejected before merge sizes
  // its bookkeeping from them.
  const auto expect_parse_error = [](const std::string& text,
                                     const std::string& needle) {
    try {
      parse_suite_summary(text, "corrupt.json");
      FAIL() << "accepted: " << text;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << error.what();
    }
  };
  expect_parse_error(
      "{\"manifest\": {\"hash\": \"aa\", \"scenarios\": 4},\n"
      " \"shard\": {\"index\": 1, \"count\": 4294967297},\n"
      " \"scenarios\": []}",
      "shard 1/4294967297 is not valid");
  expect_parse_error(
      "{\"manifest\": {\"hash\": \"aa\", \"scenarios\": 4},\n"
      " \"shard\": {\"index\": 0, \"count\": 2}, \"scenarios\": []}",
      "is not valid");
  expect_parse_error(
      "{\"manifest\": {\"hash\": \"aa\", \"scenarios\": 40000000000},\n"
      " \"scenarios\": []}",
      "implausibly large");
}

TEST(SweepMerge, ParseErrorsNameTheSummaryAndMember) {
  try {
    parse_suite_summary("{\"summary\": {}}", "broken.json");
    FAIL() << "summary without scenarios accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("broken.json"), std::string::npos) << message;
    EXPECT_NE(message.find("scenarios"), std::string::npos) << message;
  }
  // Mixed timing is ambiguous — reject rather than guess.
  const std::string mixed =
      "{\n  \"manifest\": {\"hash\": \"aa\", \"scenarios\": 2},\n"
      "  \"scenarios\": [\n    " +
      entry_json(0, "a") + ",\n    " +
      [] {
        std::string with_wall = entry_json(1, "b");
        with_wall.insert(with_wall.size() - 1, ", \"wall_seconds\": 0.5");
        return with_wall;
      }() +
      "\n  ],\n  \"summary\": {\"scenarios\": 2, \"failures\": 0}\n}\n";
  try {
    parse_suite_summary(mixed, "mixed.json");
    FAIL() << "mixed timing accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("wall_seconds"),
              std::string::npos);
  }
  // A single unsharded summary (shard 1/1) merges to itself — the trivial
  // cover — so single-machine summaries flow through the same tool.
  const std::string whole =
      shard_json("00000000000000aa", 2, 1, 1, {0, 1});
  std::vector<SuiteSummary> shards;
  shards.push_back(parse_suite_summary(whole, "whole"));
  const SuiteSummary merged = merge_suite_summaries(std::move(shards));
  EXPECT_EQ(merged.records.size(), 2u);
}

}  // namespace
}  // namespace dnnlife::core
