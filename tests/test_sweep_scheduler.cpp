// core::SweepScheduler, the batch sweep path under ScenarioSuite::run,
// plus the headline determinism claim: a sweep summary (timing omitted)
// is BYTE-identical for every executor size × job budget combination,
// pinned with a golden FNV-1a hash so a future scheduling change that
// silently reorders aggregation fails loudly. Also covers taking outcomes
// from Handles, journal resumption and rejection of journaled indices,
// destruction with points still in flight, the retry budget at its upper
// edge, and the stage-budget lending rule.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_generator.hpp"
#include "core/scenario_suite.hpp"
#include "core/sweep_journal.hpp"
#include "core/sweep_scheduler.hpp"
#include "util/executor.hpp"
#include "util/hash.hpp"

namespace dnnlife::core {
namespace {

namespace fs = std::filesystem;

// ---- fixtures ----------------------------------------------------------------

/// A 24-point grid (3 temperatures x 2 vdd x 2 policies x 2 jitter
/// samples) of fast scenarios: one inference on a tiny NPU.
std::string matrix_spec() {
  return R"({
  "name": "matrix24",
  "base": {
    "hardware": "tpu-like-npu",
    "npu": {"array_dim": 32, "fifo_tiles": 2},
    "phases": [{"network": "custom_mnist", "inferences": 1}]
  },
  "axes": [
    {"parameter": "temperature_c", "values": [25, 85, 125]},
    {"parameter": "vdd", "values": [0.95, 1.0]},
    {"parameter": "policy", "values": ["no-mitigation", "inversion"]}
  ],
  "jitter": {"seed": 17, "samples": 2, "temperature_c": 3.0}
})";
}

ScenarioSuite matrix_suite() {
  ScenarioSuite suite;
  for (GeneratedScenario& point :
       ScenarioGenerator::parse(matrix_spec()).generate())
    suite.add(SuiteEntry{point.name + ".json", std::move(point.spec),
                         std::move(point.document)});
  return suite;
}

fs::path temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---- outcomes ----------------------------------------------------------------

TEST(SweepScheduler, IncrementalSubmissionDeliversOutcomes) {
  const ScenarioSuite suite = matrix_suite();
  SweepScheduler::Options options;
  options.jobs = 2;
  options.threads_per_scenario = 1;
  SweepScheduler scheduler(options);
  std::vector<SweepScheduler::Handle> handles;
  for (std::size_t index = 0; index < 4; ++index)
    handles.push_back(scheduler.submit(suite.entries()[index], index));
  scheduler.wait_all();
  for (std::size_t index = 0; index < 4; ++index) {
    const SuiteOutcome outcome = handles[index].take_outcome();
    EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.index, index);
    EXPECT_EQ(outcome.name, suite.entries()[index].spec.name);
  }
}

TEST(SweepScheduler, TakeOutcomeMovesTheResultOut) {
  const ScenarioSuite suite = matrix_suite();
  SweepScheduler::Options options;
  options.threads_per_scenario = 1;
  SweepScheduler scheduler(options);
  SweepScheduler::Handle handle = scheduler.submit(suite.entries()[0], 0);
  scheduler.wait_all();
  const SuiteOutcome taken = handle.take_outcome();
  EXPECT_TRUE(taken.ok) << taken.error;
  EXPECT_THROW(handle.take_outcome(), std::logic_error)
      << "an outcome is taken once";
  EXPECT_THROW(SweepScheduler::Handle().take_outcome(), std::logic_error);
}

TEST(SweepScheduler, MaximalRetryBudgetDoesNotWrap) {
  // retries = UINT_MAX must mean "retry until success", not wrap the
  // attempt limit to zero and give up after the first failure.
  const ScenarioSuite suite = matrix_suite();
  SweepScheduler::Options options;
  options.threads_per_scenario = 1;
  options.retries = std::numeric_limits<unsigned>::max();
  options.fault_hook = [](const SuiteFaultContext& context) {
    if (context.attempt <= 2) throw std::runtime_error("injected");
  };
  SweepScheduler scheduler(options);
  SweepScheduler::Handle handle = scheduler.submit(suite.entries()[0], 0);
  scheduler.wait_all();
  const SuiteOutcome outcome = handle.take_outcome();
  EXPECT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.attempts, 3u);
}

// Leaving the scope without wait_all(): the destructor waits for the
// running point and the two queued behind it (distinct payload keys, so
// none parks) before it frees the queue and claims their tails read.
TEST(SweepScheduler, DestroyingWithPointsInFlightWaitsForThem) {
  const ScenarioSuite suite = matrix_suite();
  std::size_t announced = 0;  // progress is serialized: no lock needed
  {
    SweepScheduler::Options options;
    options.jobs = 1;
    options.threads_per_scenario = 1;
    options.fault_hook = [](const SuiteFaultContext& context) {
      if (context.index == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
    };
    options.progress = [&announced](const SuiteProgress&) { ++announced; };
    SweepScheduler scheduler(options);
    const quant::WeightFormat formats[] = {quant::WeightFormat::kInt8Symmetric,
                                           quant::WeightFormat::kInt8Asymmetric,
                                           quant::WeightFormat::kFloat32};
    for (std::size_t index = 0; index < 3; ++index) {
      SuiteEntry entry = suite.entries()[index];
      entry.spec.format = formats[index];
      scheduler.submit(std::move(entry), index);
    }
  }
  EXPECT_EQ(announced, 3u);
}

// ---- stage budgets -----------------------------------------------------------

TEST(SweepScheduler, StageThreadsLendIdleAdmissionSlots) {
  constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
  // Idle slots are lent: one of four slots held, three lent.
  EXPECT_EQ(SweepScheduler::stage_threads(1, 4, 1, 4), 4u);
  EXPECT_EQ(SweepScheduler::stage_threads(2, 4, 2, 16), 6u);
  // Full admission lends nothing.
  EXPECT_EQ(SweepScheduler::stage_threads(1, 4, 4, 4), 1u);
  EXPECT_EQ(SweepScheduler::stage_threads(3, 1, 1, 64), 3u);
  // An own budget of 0 (hardware) stays 0.
  EXPECT_EQ(SweepScheduler::stage_threads(0, 4, 1, 4), 0u);
  // The executor's workers cap the loan, but never the own budget.
  EXPECT_EQ(SweepScheduler::stage_threads(1, 12, 1, 4), 4u);
  EXPECT_EQ(SweepScheduler::stage_threads(3, 4, 1, 4), 4u);
  EXPECT_EQ(SweepScheduler::stage_threads(8, 4, 1, 4), 8u);
  // own x (jobs + 1) would wrap 32 bits; the product saturates instead.
  EXPECT_EQ(SweepScheduler::stage_threads(1024, kMax, 0, kMax), kMax);
  EXPECT_EQ(SweepScheduler::stage_threads(2, kMax, 1, kMax), kMax);
  EXPECT_EQ(SweepScheduler::stage_threads(1024, kMax, 0, 4), 1024u);
  // Never below own, whatever the slots and workers.
  for (const unsigned own : {1u, 2u, 7u, 1024u, kMax})
    for (const unsigned jobs : {1u, 4u, kMax})
      for (const unsigned in_flight : {0u, 1u, 4u, kMax})
        for (const unsigned workers : {1u, 4u, kMax})
          EXPECT_GE(SweepScheduler::stage_threads(own, jobs, in_flight, workers),
                    own);
}

// ---- journal integration -----------------------------------------------------

// The journal stores records, not full scenario results: a resumed
// session gets the recovered records from the journal itself, and a
// recovered index is never submitted again; a fresh index still runs.
TEST(SweepScheduler, JournalReplayHandlesCarryRecordsNotOutcomes) {
  const fs::path dir = temp_dir("dnnlife_scheduler_journal");
  const std::string path = (dir / "journal.jsonl").string();
  const ScenarioSuite suite = matrix_suite();
  SweepJournalHeader header;
  header.manifest_hash = suite.manifest_hash();
  header.total_scenarios = suite.size();
  header.include_timing = false;
  SweepScheduler::Options options;
  options.threads_per_scenario = 1;

  {  // First session: run points 0 and 1, journaled.
    SweepJournal journal = SweepJournal::create(path, header);
    options.journal = &journal;
    SweepScheduler scheduler(options);
    scheduler.submit(suite.entries()[0], 0);
    scheduler.submit(suite.entries()[1], 1);
    scheduler.wait_all();
  }

  // Second session: both indices come back as journal records.
  SweepJournal journal = SweepJournal::resume(path, header);
  ASSERT_EQ(journal.replayed().size(), 2u);
  for (const SuiteRecord& record : journal.replayed()) {
    ASSERT_LT(record.index, 2u);
    EXPECT_EQ(record.name, suite.entries()[record.index].spec.name);
  }
  options.journal = &journal;
  SweepScheduler scheduler(options);
  EXPECT_THROW(scheduler.submit(suite.entries()[0], 0), std::invalid_argument);
  SweepScheduler::Handle fresh = scheduler.submit(suite.entries()[2], 2);
  scheduler.wait_all();
  EXPECT_TRUE(fresh.take_outcome().ok);
  EXPECT_TRUE(journal.completed(2));
  fs::remove_all(dir);
}

// Journaled by THIS scheduler, not recovered at open: a resubmission is
// a caller bug and throws like a recovered index.
TEST(SweepScheduler, ResubmittingAnIndexItAlreadyRanThrows) {
  const fs::path dir = temp_dir("dnnlife_scheduler_dup");
  const ScenarioSuite suite = matrix_suite();
  SweepJournalHeader header;
  header.manifest_hash = suite.manifest_hash();
  header.total_scenarios = suite.size();
  header.include_timing = false;
  SweepJournal journal =
      SweepJournal::create((dir / "journal.jsonl").string(), header);
  SweepScheduler::Options options;
  options.threads_per_scenario = 1;
  options.journal = &journal;
  SweepScheduler scheduler(options);
  scheduler.submit(suite.entries()[0], 0);
  scheduler.wait_all();
  EXPECT_THROW(scheduler.submit(suite.entries()[0], 0), std::invalid_argument);
  fs::remove_all(dir);
}

// ---- the bit-identity matrix -------------------------------------------------

/// The golden: FNV-1a of the 24-point suite summary (timing omitted).
/// Every (executor size, job budget) cell below must hash to exactly this.
/// If an intentional physics/summary change moves it, re-pin from the
/// matching test_sweep_shard goldens run.
// Re-pinned for the sim-cache PR: every record now carries its
// simulation fingerprint (a deterministic field, so the matrix guarantee
// is unchanged).
constexpr std::uint64_t kPinnedSummaryHash = 0xefaf42ef46eda588ULL;

TEST(SweepSchedulerMatrix, SummariesAreByteIdenticalAcrossExecutorSizesAndJobs) {
  const ScenarioSuite suite = matrix_suite();
  ASSERT_EQ(suite.size(), 24u);
  SuiteSummaryInfo info;
  info.total_scenarios = suite.size();
  info.manifest_hash = suite.manifest_hash();
  info.include_timing = false;  // wall clocks are the nondeterministic field

  // 0 = hardware concurrency: whatever this machine has.
  const unsigned executor_sizes[] = {1, 2, 0};
  const unsigned job_budgets[] = {1, 4};
  for (const unsigned workers : executor_sizes) {
    util::Executor::configure_session(workers);
    for (const unsigned jobs : job_budgets) {
      SuiteRunOptions options;
      options.jobs = jobs;
      options.threads_per_scenario = 2;  // nested fan-out inside every job
      const std::vector<SuiteOutcome> outcomes = suite.run(options);
      const std::string summary =
          suite_summary_json(make_suite_records(outcomes), info);
      EXPECT_EQ(util::fnv1a64(summary), kPinnedSummaryHash)
          << "summary drifted at executor size " << workers << ", jobs "
          << jobs;
    }
  }
  util::Executor::configure_session(0);  // restore hardware sizing
}

}  // namespace
}  // namespace dnnlife::core
