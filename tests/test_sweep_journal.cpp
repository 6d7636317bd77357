// The durable-sweep layer: append-only journal round trips (successes,
// failures, timeouts, retried points), truncated-tail crash recovery vs
// loud mid-file corruption, header validation on resume, and the
// in-process resume invariant — a run continued from a journaled prefix
// re-executes only the missing points yet emits the byte-identical
// summary of an uninterrupted run. Also the retry and soft-deadline
// machinery of ScenarioSuite::run, driven deterministically through the
// fault-injection hook.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_generator.hpp"
#include "core/scenario_suite.hpp"
#include "core/sim_cache.hpp"
#include "core/sim_store.hpp"
#include "core/sweep_journal.hpp"
#include "core/sweep_merge.hpp"
#include "util/json.hpp"

namespace dnnlife::core {
namespace {

namespace fs = std::filesystem;

/// A small fast grid (12 points, one inference each on a tiny NPU).
std::string small_spec() {
  return R"({
  "name": "jrnl",
  "base": {
    "hardware": "tpu-like-npu",
    "npu": {"array_dim": 16, "fifo_tiles": 2},
    "phases": [{"network": "custom_mnist", "inferences": 1}]
  },
  "axes": [
    {"parameter": "temperature_c", "values": [25, 55, 85]},
    {"parameter": "vdd", "values": [0.95, 1.0]},
    {"parameter": "policy", "values": ["no-mitigation", "inversion"]}
  ]
})";
}

ScenarioSuite small_suite() {
  ScenarioSuite suite;
  for (GeneratedScenario& point :
       ScenarioGenerator::parse(small_spec()).generate())
    suite.add(SuiteEntry{point.name + ".json", std::move(point.spec),
                         std::move(point.document)});
  return suite;
}

SweepJournalHeader header_of(const ScenarioSuite& suite,
                             const SuiteShard& shard,
                             bool include_timing = false) {
  SweepJournalHeader header;
  header.manifest_hash = suite.manifest_hash();
  header.total_scenarios = suite.size();
  header.shard = shard;
  header.include_timing = include_timing;
  return header;
}

SuiteRecord record_at(std::size_t index, const std::string& name) {
  SuiteRecord record;
  record.index = index;
  record.path = name + ".json";
  record.name = name;
  record.ok = true;
  record.total_cells = 256;
  record.unused_cells = 0;
  record.snm_mean = 1.25;
  record.snm_max = 2.5;
  record.duty_mean = 0.5;
  record.fraction_optimal = 0.75;
  record.lifetime_years = 3.5;
  record.improvement_over_worst = 1.5;
  record.fraction_of_ideal = 0.9;
  record.wall_seconds = 0.0;
  return record;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class SweepJournalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest -j runs each TEST as its own process.
    dir_ = fs::path(::testing::TempDir()) /
           ("dnnlife_sweep_journal_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }
  fs::path dir_;
};

// ---- file format round trips -------------------------------------------------

TEST_F(SweepJournalFixture, RoundTripsEveryRecordStatus) {
  SweepJournalHeader header;
  header.manifest_hash = "abc123";
  header.total_scenarios = 20;
  header.shard = SuiteShard{2, 3};  // indices 1, 4, 7, ...
  header.include_timing = false;

  SuiteRecord ok = record_at(1, "p1");
  SuiteRecord failed = record_at(4, "p4");
  failed.ok = false;
  failed.error = "boom";
  failed.total_cells = 0;
  failed.snm_mean = failed.snm_max = std::nan("");
  failed.lifetime_years = std::nan("");
  SuiteRecord timeout = record_at(7, "p7");
  timeout.ok = false;
  timeout.timed_out = true;
  timeout.error = "soft deadline of 0.100 s exceeded";
  timeout.snm_mean = timeout.snm_max = std::nan("");
  timeout.lifetime_years = std::nan("");
  SuiteRecord retried = record_at(10, "p10");
  retried.attempts = 3;

  const fs::path path = dir_ / "journal.jsonl";
  {
    SweepJournal journal = SweepJournal::create(path.string(), header);
    for (const SuiteRecord* record : {&ok, &failed, &timeout, &retried})
      journal.append(*record);
    EXPECT_TRUE(journal.completed(1));
    EXPECT_FALSE(journal.completed(13));
    EXPECT_EQ(journal.completed_indices(),
              (std::vector<std::size_t>{1, 4, 7, 10}));
  }

  const SweepJournalContents contents =
      read_sweep_journal(path.string());
  EXPECT_FALSE(contents.truncated_tail);
  EXPECT_EQ(contents.header.manifest_hash, "abc123");
  EXPECT_EQ(contents.header.total_scenarios, 20u);
  EXPECT_EQ(contents.header.shard.index, 2u);
  EXPECT_EQ(contents.header.shard.count, 3u);
  EXPECT_FALSE(contents.header.include_timing);
  ASSERT_EQ(contents.records.size(), 4u);
  EXPECT_TRUE(contents.records[0].ok);
  EXPECT_FALSE(contents.records[1].ok);
  EXPECT_FALSE(contents.records[1].timed_out);
  EXPECT_EQ(contents.records[1].error, "boom");
  EXPECT_TRUE(contents.records[2].timed_out);
  EXPECT_EQ(contents.records[3].attempts, 3u);
  // The journal body is the exact record emitter's output, line by line —
  // the property the byte-identical resume rests on.
  for (std::size_t i = 0; i < contents.records.size(); ++i)
    EXPECT_EQ(suite_record_json(contents.records[i], false),
              suite_record_json(i == 0   ? ok
                                : i == 1 ? failed
                                : i == 2 ? timeout
                                         : retried,
                                false));
}

TEST_F(SweepJournalFixture, SniffsJournalsApartFromSummaries) {
  EXPECT_TRUE(looks_like_sweep_journal(
      R"({"sweep_journal": {"version": 1}})"));
  EXPECT_FALSE(looks_like_sweep_journal(R"({"scenarios": []})"));
  EXPECT_FALSE(looks_like_sweep_journal("not json at all"));
  EXPECT_FALSE(looks_like_sweep_journal(""));
}

TEST_F(SweepJournalFixture, ShardBoundIsTheSameInEveryLayer) {
  // The largest legal shard count round-trips through a journal (create,
  // then resume) and a summary (write, then parse); one more is rejected
  // where a shard is first accepted, not only when read back.
  const SuiteShard widest{1, static_cast<unsigned>(SuiteShard::kMaxCount)};
  SweepJournalHeader header;
  header.manifest_hash = "abc";
  header.total_scenarios = 3'000'000;  // shard 1 holds 0, 1000000, 2000000
  header.shard = widest;
  header.include_timing = false;
  const fs::path path = dir_ / "widest.jsonl";
  SweepJournal::create(path.string(), header).append(record_at(1'000'000, "a"));
  const SweepJournal resumed = SweepJournal::resume(path.string(), header);
  EXPECT_EQ(resumed.header().shard.count, SuiteShard::kMaxCount);
  ASSERT_EQ(resumed.replayed().size(), 1u);
  EXPECT_EQ(resumed.replayed()[0].index, 1'000'000u);

  SuiteSummaryInfo info;
  info.total_scenarios = header.total_scenarios;
  info.manifest_hash = header.manifest_hash;
  info.shard = widest;
  info.include_timing = false;
  const std::vector<SuiteRecord> records = {record_at(2'000'000, "b")};
  const SuiteSummary summary =
      parse_suite_summary(suite_summary_json(records, info), "widest.json");
  EXPECT_EQ(summary.info.shard.index, 1u);
  EXPECT_EQ(summary.info.shard.count, SuiteShard::kMaxCount);

  const SuiteShard too_wide{1, widest.count + 1};
  header.shard = too_wide;
  EXPECT_THROW(SweepJournal::create((dir_ / "too_wide.jsonl").string(), header),
               std::invalid_argument);
  EXPECT_FALSE(fs::exists(dir_ / "too_wide.jsonl"));
  EXPECT_THROW(ScenarioSuite::shard_selection(10, too_wide),
               std::invalid_argument);
}

TEST_F(SweepJournalFixture, ToleratesOnlyATruncatedFinalLine) {
  SweepJournalHeader header;
  header.manifest_hash = "abc";
  header.total_scenarios = 10;
  header.shard = SuiteShard{1, 1};
  header.include_timing = false;
  const fs::path path = dir_ / "torn.jsonl";
  {
    SweepJournal journal = SweepJournal::create(path.string(), header);
    journal.append(record_at(0, "a"));
    journal.append(record_at(1, "b"));
  }
  const std::string whole = slurp(path);

  // Chop the final record mid-line: crash debris, silently dropped.
  std::ofstream(path, std::ios::binary)
      << whole.substr(0, whole.size() - 25);
  const SweepJournalContents torn = read_sweep_journal(path.string());
  EXPECT_TRUE(torn.truncated_tail);
  ASSERT_EQ(torn.records.size(), 1u);
  EXPECT_EQ(torn.records[0].index, 0u);

  // The same damage mid-file (a newline after it) is corruption: loud.
  std::ofstream(path, std::ios::binary)
      << whole.substr(0, whole.size() - 25) << "\n";
  EXPECT_THROW(read_sweep_journal(path.string()), std::invalid_argument);
}

TEST_F(SweepJournalFixture, ReadFailureIsNamedNotATornTail) {
  // Reading a directory fails mid-read (EISDIR). An rdbuf slurp would hand
  // the parser an empty prefix; a read error must surface as one instead,
  // since a prefix that parses passes for a torn tail and resume would
  // compact the journal down to it.
  try {
    (void)read_sweep_journal(dir_.string());
    FAIL() << "a directory read as a journal";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("stream failed mid-read"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(SweepJournalFixture, RejectsForeignAndMalformedJournals) {
  EXPECT_THROW(parse_sweep_journal("", "t"), std::invalid_argument);
  EXPECT_THROW(parse_sweep_journal(R"({"scenarios": []})", "t"),
               std::invalid_argument);
  // Unsupported version.
  EXPECT_THROW(
      parse_sweep_journal(
          R"({"sweep_journal": {"version": 2, "manifest": {"hash": "x", )"
          R"("scenarios": 1}, "shard": {"index": 1, "count": 1}, )"
          R"("include_timing": false}})",
          "t"),
      std::invalid_argument);
  // A record outside the header's shard selection.
  const std::string bad_index =
      R"({"sweep_journal": {"version": 1, "manifest": {"hash": "x", )"
      R"("scenarios": 10}, "shard": {"index": 1, "count": 2}, )"
      R"("include_timing": false}})"
      "\n" +
      suite_record_json(record_at(1, "odd"), false) + "\n";
  EXPECT_THROW(parse_sweep_journal(bad_index, "t"), std::invalid_argument);
}

TEST_F(SweepJournalFixture, AppendValidatesShardMembershipAndDuplicates) {
  SweepJournalHeader header;
  header.manifest_hash = "abc";
  header.total_scenarios = 10;
  header.shard = SuiteShard{2, 3};
  header.include_timing = false;
  SweepJournal journal =
      SweepJournal::create((dir_ / "guard.jsonl").string(), header);
  journal.append(record_at(4, "p4"));
  EXPECT_THROW(journal.append(record_at(4, "p4")), std::invalid_argument);
  EXPECT_THROW(journal.append(record_at(5, "p5")), std::invalid_argument);
  EXPECT_THROW(journal.append(record_at(10, "p10")), std::invalid_argument);
}

// ---- resume header validation ------------------------------------------------

TEST_F(SweepJournalFixture, ResumeRejectsMismatchedHeaders) {
  SweepJournalHeader header;
  header.manifest_hash = "abc";
  header.total_scenarios = 10;
  header.shard = SuiteShard{2, 3};
  header.include_timing = false;
  const fs::path path = dir_ / "resume.jsonl";
  { SweepJournal::create(path.string(), header).append(record_at(1, "p1")); }

  SweepJournalHeader other = header;
  other.manifest_hash = "def";
  EXPECT_THROW(SweepJournal::resume(path.string(), other),
               std::invalid_argument);
  other = header;
  other.shard = SuiteShard{1, 3};
  EXPECT_THROW(SweepJournal::resume(path.string(), other),
               std::invalid_argument);
  other = header;
  other.include_timing = true;
  EXPECT_THROW(SweepJournal::resume(path.string(), other),
               std::invalid_argument);

  // The matching header resumes and replays.
  SweepJournal resumed = SweepJournal::resume(path.string(), header);
  ASSERT_EQ(resumed.replayed().size(), 1u);
  EXPECT_EQ(resumed.replayed()[0].index, 1u);
  EXPECT_FALSE(resumed.recovered_truncated_tail());
}

TEST_F(SweepJournalFixture, ResumeStartsFreshOnMissingOrEmptyFiles) {
  SweepJournalHeader header;
  header.manifest_hash = "abc";
  header.total_scenarios = 4;
  header.shard = SuiteShard{1, 1};
  header.include_timing = false;

  const fs::path missing = dir_ / "missing.jsonl";
  SweepJournal fresh = SweepJournal::resume(missing.string(), header);
  EXPECT_TRUE(fresh.replayed().empty());
  EXPECT_TRUE(fs::exists(missing));

  const fs::path empty = dir_ / "empty.jsonl";
  std::ofstream(empty).close();
  EXPECT_TRUE(SweepJournal::resume(empty.string(), header)
                  .replayed()
                  .empty());

  // A torn header (single unparseable line, no newline) restarts fresh...
  const fs::path torn = dir_ / "torn-header.jsonl";
  std::ofstream(torn, std::ios::binary) << R"({"sweep_jour)";
  EXPECT_TRUE(SweepJournal::resume(torn.string(), header)
                  .replayed()
                  .empty());

  // ...but a multi-line unparseable file is someone else's data: refused,
  // and left untouched.
  const fs::path foreign = dir_ / "notes.txt";
  std::ofstream(foreign, std::ios::binary) << "line one\nline two\n";
  EXPECT_THROW(SweepJournal::resume(foreign.string(), header),
               std::invalid_argument);
  EXPECT_EQ(slurp(foreign), "line one\nline two\n");
}

TEST_F(SweepJournalFixture, ResumeCompactsCrashDebris) {
  SweepJournalHeader header;
  header.manifest_hash = "abc";
  header.total_scenarios = 10;
  header.shard = SuiteShard{1, 1};
  header.include_timing = false;
  const fs::path path = dir_ / "compact.jsonl";
  {
    SweepJournal journal = SweepJournal::create(path.string(), header);
    journal.append(record_at(0, "a"));
    journal.append(record_at(1, "b"));
  }
  // Tear the final record, then resume: the torn bytes must be gone and
  // fresh appends must follow the intact prefix directly.
  const std::string whole = slurp(path);
  std::ofstream(path, std::ios::binary)
      << whole.substr(0, whole.size() - 10);
  {
    SweepJournal resumed = SweepJournal::resume(path.string(), header);
    EXPECT_TRUE(resumed.recovered_truncated_tail());
    ASSERT_EQ(resumed.replayed().size(), 1u);
    resumed.append(record_at(1, "b"));
    resumed.append(record_at(2, "c"));
  }
  const SweepJournalContents contents = read_sweep_journal(path.string());
  EXPECT_FALSE(contents.truncated_tail);
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_EQ(contents.records[2].index, 2u);
}

// ---- suite integration: skip, append, resume ---------------------------------

TEST_F(SweepJournalFixture, ResumedRunSkipsJournaledPointsAndMatchesBytes) {
  const ScenarioSuite suite = small_suite();
  const SuiteShard shard{1, 1};

  // The reference: one uninterrupted run.
  SuiteRunOptions options;
  options.jobs = 2;
  options.threads_per_scenario = 1;
  const std::vector<SuiteOutcome> reference = suite.run(options);
  SuiteSummaryInfo info;
  info.total_scenarios = suite.size();
  info.manifest_hash = suite.manifest_hash();
  info.include_timing = false;
  const std::string reference_json =
      suite_summary_json(make_suite_records(reference), info);

  // A journal holding the first half, as a crashed run would leave it.
  const fs::path path = dir_ / "half.jsonl";
  {
    SweepJournal journal =
        SweepJournal::create(path.string(), header_of(suite, shard));
    for (std::size_t i = 0; i < suite.size() / 2; ++i)
      journal.append(make_suite_record(reference[i]));
  }

  // Resume: the journaled indices must not execute again (the fault hook
  // observes every attempted index), and the rebuilt summary must equal
  // the uninterrupted run byte for byte.
  SweepJournal journal =
      SweepJournal::resume(path.string(), header_of(suite, shard));
  std::mutex mutex;
  std::set<std::size_t> executed;
  options.journal = &journal;
  options.fault_hook = [&](const SuiteFaultContext& context) {
    const std::lock_guard<std::mutex> lock(mutex);
    executed.insert(context.index);
  };
  const std::vector<SuiteOutcome> fresh = suite.run(options);
  EXPECT_EQ(fresh.size(), suite.size() - suite.size() / 2);
  for (std::size_t i = 0; i < suite.size() / 2; ++i)
    EXPECT_FALSE(executed.count(i)) << "journaled index " << i << " re-ran";

  const std::vector<SuiteRecord> records =
      resumed_suite_records(journal, fresh);
  ASSERT_EQ(records.size(), suite.size());
  EXPECT_EQ(suite_summary_json(records, info), reference_json);

  // The journal file itself now holds the complete shard.
  EXPECT_EQ(read_sweep_journal(path.string()).records.size(), suite.size());
}

TEST_F(SweepJournalFixture, RunRejectsAJournalOfADifferentSweep) {
  const ScenarioSuite suite = small_suite();
  SweepJournalHeader header = header_of(suite, SuiteShard{1, 1});
  header.manifest_hash = "0000000000000000";  // not this suite
  SweepJournal journal =
      SweepJournal::create((dir_ / "foreign.jsonl").string(), header);
  SuiteRunOptions options;
  options.journal = &journal;
  EXPECT_THROW(suite.run(options), std::invalid_argument);
}

TEST_F(SweepJournalFixture, ResumedRecordsRejectOverlap) {
  const ScenarioSuite suite = small_suite();
  const std::string path = (dir_ / "overlap.jsonl").string();
  { SweepJournal::create(path, header_of(suite, SuiteShard{1, 1}))
        .append(record_at(0, "a")); }
  // Reopen so index 0 is a *replayed* record; executing it fresh anyway
  // (a skip-logic bug) must be caught, not silently duplicated.
  const SweepJournal journal =
      SweepJournal::resume(path, header_of(suite, SuiteShard{1, 1}));
  SuiteOutcome outcome;
  outcome.index = 0;
  outcome.ok = true;
  EXPECT_THROW(
      resumed_suite_records(journal, std::vector<SuiteOutcome>{outcome}),
      std::logic_error);
}

// ---- retry and soft-deadline machinery ---------------------------------------

TEST(SweepRetry, RetriesFailedAttemptsUntilSuccess) {
  const ScenarioSuite suite = small_suite();
  std::mutex mutex;
  std::set<std::size_t> failed_once;
  SuiteRunOptions options;
  options.jobs = 2;
  options.threads_per_scenario = 1;
  options.retries = 2;
  // Every point's first attempt fails; the second succeeds.
  options.fault_hook = [&](const SuiteFaultContext& context) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (failed_once.insert(context.index).second)
      throw std::runtime_error("transient failure");
  };
  for (const SuiteOutcome& outcome : suite.run(options)) {
    EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.attempts, 2u);
  }
}

TEST(SweepRetry, ExhaustedRetriesReportTheLastError) {
  const ScenarioSuite suite = small_suite();
  SuiteRunOptions options;
  options.jobs = 2;
  options.threads_per_scenario = 1;
  options.retries = 2;
  options.fault_hook = [](const SuiteFaultContext& context) {
    if (context.index == 3)
      throw std::runtime_error("attempt " +
                               std::to_string(context.attempt) + " failed");
  };
  const std::vector<SuiteOutcome> outcomes = suite.run(options);
  const SuiteOutcome& failed = outcomes[3];
  EXPECT_FALSE(failed.ok);
  EXPECT_FALSE(failed.timed_out);
  EXPECT_EQ(failed.attempts, 3u);  // 1 + 2 retries
  EXPECT_EQ(failed.error, "attempt 3 failed");
  for (const SuiteOutcome& outcome : outcomes) {
    if (outcome.index != 3) {
      EXPECT_EQ(outcome.attempts, 1u);
    }
  }
}

TEST(SweepDeadline, ClassifiesAStalledPointAsTimeout) {
  const ScenarioSuite suite = small_suite();
  SuiteRunOptions options;
  options.jobs = 2;
  options.threads_per_scenario = 1;
  // Wide margins keep this deterministic on loaded/sanitized builds: a
  // healthy point finishes in milliseconds, the stalled one sleeps 1 s
  // past the deadline and then stops at the scenario's entry check.
  options.soft_deadline_seconds = 2.0;
  options.fault_hook = [](const SuiteFaultContext& context) {
    if (context.index == 5)
      std::this_thread::sleep_for(std::chrono::seconds(3));
  };
  const std::vector<SuiteOutcome> outcomes = suite.run(options);
  const SuiteOutcome& stalled = outcomes[5];
  EXPECT_FALSE(stalled.ok);
  EXPECT_TRUE(stalled.timed_out);
  EXPECT_NE(stalled.error.find("soft deadline"), std::string::npos)
      << stalled.error;
  EXPECT_EQ(make_suite_record(stalled).timed_out, true);
  for (const SuiteOutcome& outcome : outcomes) {
    if (outcome.index != 5) {
      EXPECT_TRUE(outcome.ok) << outcome.error;
    }
  }
}

TEST(SweepDeadline, TimeoutsAreRetriedLikeFailures) {
  const ScenarioSuite suite = small_suite();
  std::mutex mutex;
  std::set<std::size_t> stalled_once;
  SuiteRunOptions options;
  options.jobs = 2;
  options.threads_per_scenario = 1;
  options.soft_deadline_seconds = 2.0;
  options.retries = 1;
  options.fault_hook = [&](const SuiteFaultContext& context) {
    bool first = false;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      first = stalled_once.insert(context.index).second;
    }
    if (first && context.index == 2)
      std::this_thread::sleep_for(std::chrono::seconds(3));
  };
  const std::vector<SuiteOutcome> outcomes = suite.run(options);
  const SuiteOutcome& recovered = outcomes[2];
  EXPECT_TRUE(recovered.ok) << recovered.error;
  EXPECT_FALSE(recovered.timed_out);
  EXPECT_EQ(recovered.attempts, 2u);
}

// A timed-out attempt stops inside its own task: once run() returns, no
// part of it still holds the cache or the store.
TEST(SweepDeadline, TimedOutAttemptHoldsNothingAfterRun) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "dnnlife_sweep_deadline_holds";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const ScenarioSuite suite = small_suite();
  SuiteRunOptions options;
  options.jobs = 2;
  options.threads_per_scenario = 1;
  options.soft_deadline_seconds = 1.0;
  options.sim_cache = std::make_shared<SimCache>(std::size_t{1} << 26);
  options.sim_store =
      std::make_shared<SimStore>(SimStore::Options{dir.string(), 0});
  options.fault_hook = [](const SuiteFaultContext& context) {
    if (context.index == 5)
      std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  };
  const std::vector<SuiteOutcome> outcomes = suite.run(options);
  EXPECT_TRUE(outcomes[5].timed_out) << outcomes[5].error;
  EXPECT_EQ(options.sim_cache.use_count(), 1);
  EXPECT_EQ(options.sim_store.use_count(), 1);
  options.sim_store.reset();
  std::error_code ignored;
  fs::remove_all(dir, ignored);
}

TEST(SweepRecordJson, AttemptsFieldAppearsOnlyWhenRetried) {
  SuiteRecord record = record_at(0, "a");
  EXPECT_EQ(suite_record_json(record, false).find("\"attempts\""),
            std::string::npos);
  record.attempts = 2;
  EXPECT_NE(suite_record_json(record, false).find("\"attempts\": 2"),
            std::string::npos);
  // Round trip through the parser keeps the count.
  const util::JsonValue parsed =
      util::JsonValue::parse(suite_record_json(record, false));
  EXPECT_EQ(parse_suite_record(parsed).attempts, 2u);
}

}  // namespace
}  // namespace dnnlife::core
