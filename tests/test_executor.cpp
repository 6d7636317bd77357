// The session-scoped executor: TaskGroup completion/exception/reuse, bulk
// submission (every index exactly once, budget respected), and the
// load-bearing nested-fan-out property — a thread blocked in
// TaskGroup::wait() RUNS pending tasks (its own group's first) instead of
// sleeping, so fan-outs nested on the same pool cannot deadlock even with
// a single worker. Ends with a stress test shaped like the sweep stack
// (jobs that each fan out shard bulks) and an executor-size invariance
// check over the ReportEvaluator fold.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "aging/report_evaluator.hpp"
#include "util/executor.hpp"

namespace dnnlife::util {
namespace {

// ---- task lifetime -----------------------------------------------------------

TEST(ExecutorTask, DestroysCapturesExactlyOnce) {
  const auto counter = std::make_shared<int>(0);
  {
    Executor executor(2);
    TaskGroup group(executor);
    group.submit([counter] { ++*counter; });
    group.wait();
    EXPECT_EQ(counter.use_count(), 1)
        << "the queued copy must be destroyed once it has run";
  }
  EXPECT_EQ(*counter, 1);
  EXPECT_EQ(counter.use_count(), 1) << "captured copies must be destroyed";
}

// ---- TaskGroup basics --------------------------------------------------------

TEST(Executor, RunsSubmittedTasksToCompletion) {
  Executor executor(4);
  EXPECT_EQ(executor.workers(), 4u);
  std::atomic<int> hits{0};
  TaskGroup group(executor);
  for (int i = 0; i < 100; ++i)
    group.submit([&hits] { hits.fetch_add(1, std::memory_order_relaxed); });
  group.wait();
  EXPECT_EQ(hits.load(), 100);
  EXPECT_EQ(group.pending(), 0u);
}

TEST(Executor, WaitRethrowsFirstExceptionAndGroupStaysUsable) {
  Executor executor(2);
  TaskGroup group(executor);
  group.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The error was consumed; the group is reusable.
  std::atomic<int> hits{0};
  group.submit([&hits] { ++hits; });
  EXPECT_NO_THROW(group.wait());
  EXPECT_EQ(hits.load(), 1);
}

TEST(Executor, SubmitBulkCoversEveryIndexExactlyOnce) {
  Executor executor(4);
  constexpr std::uint64_t kN = 10'000;
  std::vector<std::atomic<int>> visits(kN);
  TaskGroup group(executor);
  group.submit_bulk(kN, 16,
                    [&](unsigned, std::uint64_t begin, std::uint64_t end) {
                      for (std::uint64_t i = begin; i < end; ++i)
                        visits[i].fetch_add(1, std::memory_order_relaxed);
                    });
  group.wait();
  for (std::uint64_t i = 0; i < kN; ++i)
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(Executor, SubmitBulkShardPartitionMatchesShardRange) {
  Executor executor(3);
  constexpr std::uint64_t kN = 997;  // prime: uneven shards
  constexpr unsigned kShards = 7;
  std::array<std::pair<std::uint64_t, std::uint64_t>, kShards> seen;
  TaskGroup group(executor);
  group.submit_bulk(kN, kShards,
                    [&](unsigned shard, std::uint64_t begin, std::uint64_t end) {
                      seen[shard] = {begin, end};
                    });
  group.wait();
  for (unsigned s = 0; s < kShards; ++s)
    EXPECT_EQ(seen[s], shard_range(kN, kShards, s))
        << "the partition must be the pure function, never worker-derived";
}

TEST(Executor, SubmitItemsHonoursTheConcurrencyBudget) {
  Executor executor(8);
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  TaskGroup group(executor);
  group.submit_items(64, 3, [&](std::size_t) {
    const int now = live.fetch_add(1, std::memory_order_acq_rel) + 1;
    int best = peak.load(std::memory_order_relaxed);
    while (best < now &&
           !peak.compare_exchange_weak(best, now, std::memory_order_relaxed)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    live.fetch_sub(1, std::memory_order_acq_rel);
  });
  group.wait();
  EXPECT_LE(peak.load(), 3) << "budget 3 must cap concurrent items";
  EXPECT_GE(peak.load(), 1);
}

TEST(Executor, ExceptionsInsideBulkShardsPropagate) {
  Executor executor(2);
  TaskGroup group(executor);
  group.submit_bulk(100, 10,
                    [](unsigned shard, std::uint64_t, std::uint64_t) {
                      if (shard == 7) throw std::invalid_argument("shard 7");
                    });
  EXPECT_THROW(group.wait(), std::invalid_argument);
}

// ---- nested fan-outs ---------------------------------------------------------

TEST(Executor, WorkerBlockedInWaitExecutesSubtasksAtSizeOne) {
  // THE deadlock shape the TaskGroup design exists for: with ONE worker,
  // an outer task fans out subtasks on the same executor and waits. A
  // sleeping wait would deadlock forever (nobody left to run the inner
  // tasks); the helping wait runs them on the blocked worker itself.
  Executor executor(1);
  std::atomic<int> inner_hits{0};
  std::thread::id outer_thread;
  std::set<std::thread::id> inner_threads;
  std::mutex inner_mutex;
  // The test main must not help: a waiter in outer.wait() may run the
  // outer task itself, or take inner tasks while the worker runs it, and
  // then the subtasks see two threads. Block on a latch the outer task
  // counts down as its last action, so outer.wait() only collects it.
  std::latch outer_done(1);
  TaskGroup outer(executor);
  outer.submit([&] {
    outer_thread = std::this_thread::get_id();
    TaskGroup inner(executor);
    for (int i = 0; i < 8; ++i)
      inner.submit([&] {
        inner_hits.fetch_add(1, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(inner_mutex);
        inner_threads.insert(std::this_thread::get_id());
      });
    inner.wait();
    outer_done.count_down();
  });
  outer_done.wait();
  outer.wait();
  EXPECT_EQ(inner_hits.load(), 8);
  ASSERT_EQ(inner_threads.size(), 1u);
  EXPECT_EQ(*inner_threads.begin(), outer_thread)
      << "the single worker must have run the subtasks from inside wait()";
}

TEST(Executor, ExternalWaiterHelpsInsteadOfSleeping) {
  // A non-worker thread (here: the test main) waiting on a group also
  // participates; with zero... one busy worker, the waiter's help keeps
  // the fan-out finishing even while the worker is pinned.
  Executor executor(1);
  std::atomic<bool> release{false};
  TaskGroup pin(executor);
  pin.submit([&release] {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  std::atomic<int> hits{0};
  TaskGroup group(executor);
  for (int i = 0; i < 16; ++i)
    group.submit([&hits, &release] {
      if (hits.fetch_add(1, std::memory_order_acq_rel) + 1 == 16)
        release.store(true, std::memory_order_release);
    });
  group.wait();  // the worker is pinned: these 16 ran on THIS thread
  EXPECT_EQ(hits.load(), 16);
  pin.wait();
}

TEST(Executor, WaiterRunsItsOwnGroupBeforeOlderForeignWork) {
  // A waiter takes the oldest queued item of its OWN group before older
  // foreign work: with the single worker held, an external thread waiting
  // on its group runs its own item and returns, leaving the foreign item
  // (queued first) untouched for the worker.
  Executor executor(1);
  std::latch held(1);
  std::latch release(1);
  TaskGroup pin(executor);
  pin.submit([&] {
    held.count_down();
    release.wait();
  });
  held.wait();
  std::atomic<bool> foreign_ran{false};
  TaskGroup foreign(executor);
  foreign.submit(
      [&foreign_ran] { foreign_ran.store(true, std::memory_order_release); });
  bool own_ran = false;
  TaskGroup own(executor);
  own.submit([&own_ran] { own_ran = true; });
  own.wait();
  EXPECT_TRUE(own_ran);
  EXPECT_FALSE(foreign_ran.load(std::memory_order_acquire))
      << "the waiter must not run older foreign work while its own is queued";
  release.count_down();
  pin.wait();
  foreign.wait();
  EXPECT_TRUE(foreign_ran.load());
}

TEST(Executor, NestedFanOutStress) {
  // The sweep stack's shape: `jobs` outer tasks, each fanning out a shard
  // bulk and waiting, all on one small executor. Every combination of
  // blocked-outer/running-inner must drain without deadlock or loss.
  for (const unsigned workers : {1u, 2u, 4u}) {
    Executor executor(workers);
    std::atomic<std::uint64_t> total{0};
    TaskGroup jobs(executor);
    constexpr int kJobs = 12;
    constexpr std::uint64_t kItems = 500;
    for (int j = 0; j < kJobs; ++j)
      jobs.submit([&executor, &total] {
        TaskGroup inner(executor);
        inner.submit_bulk(kItems, 8,
                          [&](unsigned, std::uint64_t begin, std::uint64_t end) {
                            total.fetch_add(end - begin,
                                            std::memory_order_relaxed);
                          });
        inner.wait();
      });
    jobs.wait();
    EXPECT_EQ(total.load(), kJobs * kItems) << workers << " workers";
  }
}

// ---- determinism across executor sizes ---------------------------------------

TEST(Executor, ReportEvaluatorFoldIsInvariantAcrossExecutorSizes) {
  // The determinism argument in miniature: the distinct-history values
  // (ReportEvaluator) and the fold over the history table's tallies must
  // be identical for any executor size, because each value is a pure
  // function of its history and the tallies are fixed by the table.
  // 1500 distinct histories span three evaluation chunks, so the budget-4
  // run really fans out. Uses the session executor via configure_session
  // — legal here because the session is idle between runs.
  const std::size_t cells = 3 * aging::ReportEvaluator::kChunk + 1000;
  aging::DutyCycleTracker tracker(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    tracker.ones_time()[cell] = static_cast<std::uint32_t>(cell % 1500);
    tracker.total_time()[cell] = 2000;
  }
  const aging::EnvironmentSegmentView segment{&tracker, {}};
  const aging::HistoryTable table({&segment, 1});
  const auto fold_hash = [&] {
    aging::ReportEvaluator evaluator(4);  // fixed budget — NOT the variable
    const std::vector<std::uint64_t> values =
        evaluator.evaluate<std::uint64_t>(table.size(), [&] {
          return [&](std::size_t begin, std::size_t end,
                     std::span<std::uint64_t> out) {
            for (std::size_t id = begin; id < end; ++id)
              out[id - begin] =
                  static_cast<std::uint64_t>(table.firsts()[id]) * 2654435761u;
          };
        });
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const aging::HistoryTable::Tally& tally : table.tallies(0)) {
      hash ^= tally.cells * 0x9e3779b97f4a7c15ULL + values[tally.id];
      hash *= 0x100000001b3ULL;
    }
    return hash;
  };
  Executor::configure_session(1);
  const std::uint64_t serial = fold_hash();
  Executor::configure_session(2);
  const std::uint64_t two = fold_hash();
  Executor::configure_session(0);  // hardware
  const std::uint64_t hardware = fold_hash();
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, hardware);
}

TEST(Executor, SessionExecutorIsSharedAndSized) {
  Executor::configure_session(3);
  EXPECT_EQ(Executor::session().workers(), 3u);
  EXPECT_EQ(&Executor::session(), &Executor::session());
  Executor::configure_session(0);  // restore hardware sizing for later tests
}

}  // namespace
}  // namespace dnnlife::util
