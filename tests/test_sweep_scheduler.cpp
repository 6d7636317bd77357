// core::SweepScheduler — the incremental half of the sweep stack — plus
// the PR's headline determinism claim: a sweep summary (timing omitted) is
// BYTE-identical for every executor size × job budget combination, pinned
// with a golden FNV-1a hash so a future scheduling change that silently
// reorders aggregation fails loudly. Also covers future-like Handles,
// journal replay handles, duplicate-index rejection, and reentrant
// submission from a progress callback (the adaptive-grid pattern), the
// retry budget at its upper edge, and the stage-budget lending rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario_generator.hpp"
#include "core/scenario_suite.hpp"
#include "core/sweep_journal.hpp"
#include "core/sweep_scheduler.hpp"
#include "util/executor.hpp"

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

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char byte : text) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

fs::path temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---- incremental submission --------------------------------------------------

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
  EXPECT_EQ(scheduler.submitted(), 4u);
  EXPECT_EQ(scheduler.completed(), 4u);
  for (std::size_t index = 0; index < 4; ++index) {
    ASSERT_TRUE(handles[index].valid());
    EXPECT_TRUE(handles[index].done());
    EXPECT_FALSE(handles[index].replayed());
    EXPECT_EQ(handles[index].index(), index);
    const SuiteOutcome& outcome = handles[index].outcome();
    EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.name, suite.entries()[index].spec.name);
    EXPECT_EQ(handles[index].record().index, index);
  }
}

TEST(SweepScheduler, HandleBlocksUntilItsPointFinished) {
  // outcome() before wait_all(): the handle itself must block (helping
  // the executor) until its point is done — the future-like contract.
  const ScenarioSuite suite = matrix_suite();
  SweepScheduler::Options options;
  options.jobs = 1;
  options.threads_per_scenario = 1;
  SweepScheduler scheduler(options);
  SweepScheduler::Handle first = scheduler.submit(suite.entries()[0], 0);
  SweepScheduler::Handle second = scheduler.submit(suite.entries()[1], 1);
  // With jobs=1 the second point is queued behind the first; waiting on it
  // exercises the help-while-waiting path through the whole chain.
  EXPECT_TRUE(second.outcome().ok) << second.outcome().error;
  EXPECT_TRUE(first.done());
  scheduler.wait_all();
}

TEST(SweepScheduler, SpecSubmissionAssignsIndicesItself) {
  ScenarioGenerator generator = ScenarioGenerator::parse(matrix_spec());
  std::vector<GeneratedScenario> points = generator.generate();
  SweepScheduler::Options options;
  options.threads_per_scenario = 1;
  SweepScheduler scheduler(options);
  const SweepScheduler::Handle a = scheduler.submit(points[0].spec);
  const SweepScheduler::Handle b = scheduler.submit(points[1].spec);
  scheduler.wait_all();
  EXPECT_EQ(a.index(), 0u);
  EXPECT_EQ(b.index(), 1u);
  EXPECT_TRUE(a.outcome().ok);
  EXPECT_TRUE(b.outcome().ok);
}

TEST(SweepScheduler, TakeOutcomeMovesTheResultOut) {
  const ScenarioSuite suite = matrix_suite();
  SweepScheduler::Options options;
  options.threads_per_scenario = 1;
  SweepScheduler scheduler(options);
  SweepScheduler::Handle handle = scheduler.submit(suite.entries()[0], 0);
  SuiteOutcome taken = handle.take_outcome();
  EXPECT_TRUE(taken.ok) << taken.error;
  EXPECT_TRUE(handle.done());
  scheduler.wait_all();
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
  const SuiteOutcome& outcome = handle.outcome();
  EXPECT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.attempts, 3u);
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

TEST(SweepScheduler, ProgressCallbackMaySubmitTheNextPoints) {
  // The adaptive-grid pattern the scheduler exists for: outcomes of the
  // first points decide the next submissions, made directly from the
  // progress callback while the sweep is live. Submissions from inside a
  // counted task are covered by wait_all().
  const ScenarioSuite suite = matrix_suite();
  SweepScheduler* scheduler = nullptr;
  std::vector<std::string> finished;  // progress is serialized: no lock needed
  bool extended = false;
  SweepScheduler::Options options;
  options.jobs = 2;
  options.threads_per_scenario = 1;
  options.progress = [&](const SuiteProgress& progress) {
    finished.push_back(progress.outcome->name);
    if (!extended) {
      extended = true;
      scheduler->submit(suite.entries()[2], 2);  // reentrant: adaptive refine
      scheduler->submit(suite.entries()[3], 3);
    }
  };
  SweepScheduler adaptive(options);
  scheduler = &adaptive;
  adaptive.submit(suite.entries()[0], 0);
  adaptive.submit(suite.entries()[1], 1);
  adaptive.wait_all();
  EXPECT_EQ(adaptive.submitted(), 4u);
  EXPECT_EQ(adaptive.completed(), 4u);
  EXPECT_EQ(finished.size(), 4u);
}

// ---- journal integration -----------------------------------------------------

TEST(SweepScheduler, JournalReplayHandlesCarryRecordsNotOutcomes) {
  const fs::path dir = temp_dir("dnnlife_scheduler_journal");
  const std::string path = (dir / "journal.jsonl").string();
  const ScenarioSuite suite = matrix_suite();
  SweepJournalHeader header;
  header.manifest_hash = suite.manifest_hash();
  header.total_scenarios = suite.size();
  header.include_timing = false;

  {  // First session: run points 0 and 1, journaled.
    SweepJournal journal = SweepJournal::create(path, header);
    SweepScheduler::Options options;
    options.threads_per_scenario = 1;
    options.journal = &journal;
    SweepScheduler scheduler(options);
    scheduler.submit(suite.entries()[0], 0);
    scheduler.submit(suite.entries()[1], 1);
    scheduler.wait_all();
  }

  // Second session: the same indices come back as replayed handles; a new
  // index executes normally.
  SweepJournal journal = SweepJournal::resume(path, header);
  ASSERT_EQ(journal.replayed().size(), 2u);
  SweepScheduler::Options options;
  options.threads_per_scenario = 1;
  options.journal = &journal;
  SweepScheduler scheduler(options);
  SweepScheduler::Handle replayed = scheduler.submit(suite.entries()[0], 0);
  SweepScheduler::Handle fresh = scheduler.submit(suite.entries()[2], 2);
  scheduler.wait_all();
  EXPECT_TRUE(replayed.replayed());
  EXPECT_TRUE(replayed.done());
  EXPECT_EQ(replayed.record().index, 0u);
  EXPECT_EQ(replayed.record().name, suite.entries()[0].spec.name);
  EXPECT_THROW(replayed.outcome(), std::logic_error)
      << "the journal stores records, not full scenario results";
  EXPECT_FALSE(fresh.replayed());
  EXPECT_TRUE(fresh.outcome().ok);
  EXPECT_EQ(scheduler.submitted(), 1u) << "replays are not fresh submissions";
  fs::remove_all(dir);
}

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
  // Journaled by THIS scheduler, not recovered at open: a resubmission is
  // a caller bug, not a replay.
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
      EXPECT_EQ(fnv1a64(summary), kPinnedSummaryHash)
          << "summary drifted at executor size " << workers << ", jobs "
          << jobs;
    }
  }
  util::Executor::configure_session(0);  // restore hardware sizing
}

}  // namespace
}  // namespace dnnlife::core
