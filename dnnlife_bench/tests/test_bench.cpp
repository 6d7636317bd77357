// Tests of dnnlife-bench's own parts: the percentile helper, the workload
// generators and traced-vs-untraced record identity on a small network.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "runner.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using dnnlife_bench::make_workload;
using dnnlife_bench::Workload;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> samples;
  for (std::size_t i = n; i >= 1; --i) samples.push_back(static_cast<double>(i));
  return samples;
}

std::set<std::string> fingerprints(const Workload& workload, bool warmup) {
  std::set<std::string> out;
  for (const auto& point : workload.points)
    out.insert(dnnlife::core::simulation_fingerprint(point.spec));
  if (warmup)
    for (const auto& point : workload.warmup)
      out.insert(dnnlife::core::simulation_fingerprint(point.spec));
  return out;
}

TEST(BenchStats, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(dnnlife_bench::median({}), 0.0);
  EXPECT_EQ(dnnlife_bench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(dnnlife_bench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(BenchStats, P90NeedsTenSamplesBeyond) {
  const dnnlife_bench::Percentile hundred =
      dnnlife_bench::percentile(ramp(100), 0.9);
  EXPECT_EQ(hundred.value, 90.0);
  EXPECT_EQ(hundred.samples, 100u);
  EXPECT_EQ(hundred.beyond, 10u);
  EXPECT_TRUE(hundred.resolved);

  const dnnlife_bench::Percentile short_of =
      dnnlife_bench::percentile(ramp(99), 0.9);
  EXPECT_EQ(short_of.samples, 99u);
  EXPECT_EQ(short_of.beyond, 9u);
  EXPECT_FALSE(short_of.resolved);

  const dnnlife_bench::Percentile single = dnnlife_bench::percentile({7.0}, 0.9);
  EXPECT_EQ(single.value, 7.0);
  EXPECT_EQ(single.beyond, 0u);
  EXPECT_FALSE(dnnlife_bench::percentile({}, 0.9).resolved);
}

TEST(BenchWorkloads, PolicyGridHasTwelveDistinctFingerprints) {
  const Workload workload = make_workload("policy-grid-cold", 7, 4);
  EXPECT_EQ(workload.points.size(), 12u);
  EXPECT_EQ(fingerprints(workload, false).size(), 12u);
  EXPECT_EQ(workload.jobs, 4u);
  EXPECT_TRUE(workload.journal);
}

TEST(BenchWorkloads, WarmWorkloadsShareOneFingerprint) {
  const Workload eval = make_workload("eval-warm", 7, 4);
  EXPECT_GE(eval.points.size(), 100u);
  EXPECT_EQ(fingerprints(eval, true).size(), 1u);
  for (const auto& point : eval.points)
    EXPECT_EQ(point.spec.phases.size(), 1u);

  const Workload timeline = make_workload("timeline-warm", 7, 4);
  EXPECT_EQ(fingerprints(timeline, true).size(), 1u);
  for (const auto& point : timeline.points) {
    ASSERT_EQ(point.spec.phases.size(), 2u);
    EXPECT_FALSE(point.spec.phases[0].environment ==
                 point.spec.phases[1].environment);
  }
}

TEST(BenchWorkloads, PointColdCoversSixFormatHardwarePairs) {
  const Workload workload = make_workload("point-cold", 7, 4);
  std::set<std::pair<int, int>> pairs;
  for (const auto& point : workload.points)
    pairs.emplace(static_cast<int>(point.spec.format),
                  static_cast<int>(point.spec.hardware));
  EXPECT_EQ(workload.points.size(), 6u);
  EXPECT_EQ(pairs.size(), 6u);
  EXPECT_EQ(fingerprints(workload, false).size(), 6u);
}

TEST(BenchWorkloads, SeedDrivesTheDocuments) {
  for (const std::string& name : dnnlife_bench::workload_names()) {
    const Workload a = make_workload(name, 11, 4);
    const Workload b = make_workload(name, 11, 4);
    const Workload c = make_workload(name, 12, 4);
    ASSERT_EQ(a.points.size(), b.points.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < a.points.size(); ++i) {
      EXPECT_EQ(a.points[i].document, b.points[i].document) << name;
      differing += a.points[i].document != c.points[i].document;
    }
    EXPECT_GT(differing, 0u) << name;
  }
  EXPECT_THROW(make_workload("no-such-workload", 1, 4), std::invalid_argument);
}

/// Every workload's shape on custom_mnist: the traced run's records equal
/// the untraced round's, store counters are exact and the trace covers
/// the points.
TEST(BenchSmoke, TracedRecordsEqualUntracedOnCustomMnist) {
  const fs::path root = fs::temp_directory_path() /
                        ("dnnlife_bench_smoke_" + std::to_string(::getpid()));
  for (const std::string& name : dnnlife_bench::workload_names()) {
    SCOPED_TRACE(name);
    const fs::path dir = root / name;
    dnnlife_bench::Prepared prepared =
        dnnlife_bench::set_up(name, 3, 2, dir / "setup", "custom_mnist");
    EXPECT_TRUE(prepared.warmup.failures.empty());
    // Every 12th eval-warm point still covers each model, temperature
    // and activity; the full 288 only add run time.
    if (prepared.entries.size() > 100) {
      std::vector<dnnlife::core::SuiteEntry> kept;
      for (std::size_t i = 0; i < prepared.entries.size(); i += 12)
        kept.push_back(prepared.entries[i]);
      prepared.entries = std::move(kept);
    }
    const dnnlife_bench::Round round =
        dnnlife_bench::run_round(prepared, prepared.workload.jobs, dir / "round");
    EXPECT_TRUE(round.failures.empty()) << round.failures.front();
    EXPECT_EQ(round.failed_points(), 0u);

    dnnlife_bench::TracedRun traced =
        dnnlife_bench::run_traced(prepared, dir / "traced");
    dnnlife_bench::check_same_records(round, traced.round, "traced round");
    if (prepared.workload.store == dnnlife_bench::StoreMode::kWarm)
      dnnlife_bench::check_same_records(prepared.warmup, traced.warmup,
                                        "traced warm-up");
    for (const std::string& failure : traced.round.failures)
      ADD_FAILURE() << failure;
    for (const std::string& failure : traced.warmup.failures)
      ADD_FAILURE() << failure;
    EXPECT_EQ(traced.round.digest, round.digest);

    const std::vector<dnnlife_bench::Metric> metrics =
        dnnlife_bench::per_layer_metrics(traced, {round}, round,
                                         prepared.workload.jobs);
    for (const dnnlife_bench::Metric& metric : metrics) {
      if (metric.name == "trace.coverage") {
        EXPECT_GT(metric.value, 0.5);
      }
    }
  }
  fs::remove_all(root);
}

}  // namespace
