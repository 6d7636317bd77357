// Session-scoped executor: one pool for the whole stack.
//
// Every layer of the framework parallelises — suite jobs, the fast
// simulator's row-parallel commit, report-evaluation blocks, policy
// fan-outs — and before this executor each of them constructed a private
// thread pool. A sweep at `--jobs=HW --threads=HW` therefore
// oversubscribed the machine by up to jobs x threads, while a
// single-scenario tail left most cores idle. The Executor replaces all of
// those pools with one process-wide set of workers sized once
// (DNNLIFE_EXECUTOR_THREADS / --executor-threads); the old per-call thread
// counts become concurrency *budgets* on that shared set.
//
// Design:
//  * One mutex-guarded FIFO of work items and one condition variable. A
//    worker pops the front item or parks until work arrives. The queue
//    carries little traffic: every submission is ONE allocation pushed
//    once per participant token (min(shards, budget, workers + 1)), and
//    workers claim shards or items from the item's atomic cursor, so a
//    report fan-out is O(1) allocations and O(min(items, budget)) pushes.
//  * TaskGroup makes nested fan-outs safe: a thread blocked in
//    TaskGroup::wait() *runs* pending work — the oldest queued item of
//    its own group first, else the front item — and parks only when the
//    queue is empty, so `jobs` scenario tasks can each fan out shard
//    tasks on the same pool without deadlock — even at one worker — and
//    without oversubscription.
//
// Determinism: the executor schedules, it never decomposes. Every work
// partition is fixed by its caller before submission and never by the
// worker count: reports cut their distinct histories into fixed chunks
// (see aging/report_evaluator.hpp) and submit them as items, while shard
// fan-outs such as the fast simulator's row commit use util::shard_range
// over the *budget*. Per-shard RNG derivation is untouched, results land
// in disjoint slots, and folds run in fixed shard order or are exact and
// order-free — so reports, sweeps and summaries are bit-identical for ANY
// worker count and budget (pinned by goldens in tests/test_executor.cpp and
// tests/test_report_evaluator.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>

#include "util/check.hpp"

namespace dnnlife::util {

/// The shared `threads` parameter convention: 0 means "use the hardware",
/// anything else is taken literally.
inline unsigned resolve_thread_count(unsigned threads) noexcept {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// The contiguous range shard `s` of `shards` covers in [0, n):
/// [s*n/shards, (s+1)*n/shards). Pure function of (n, shards, s) so the
/// work decomposition — and therefore any shard-seeded randomness — is
/// independent of scheduling.
constexpr std::pair<std::uint64_t, std::uint64_t> shard_range(
    std::uint64_t n, unsigned shards, unsigned s) noexcept {
  const std::uint64_t begin = n * s / shards;
  const std::uint64_t end = n * (s + 1) / shards;
  return {begin, end};
}

class TaskGroup;

namespace detail {

/// One submission in the executor queue: fn(shard, begin, end) over [0, n)
/// cut into `shards` util::shard_range pieces. It is queued once per
/// token; every thread that pops a token claims shards from `cursor`
/// until none are left, and the last token to retire deletes the item and
/// finishes it as one unit of its group. A single task is one shard.
struct WorkItem {
  WorkItem(TaskGroup* group, std::uint64_t n, unsigned shards,
           unsigned tokens) noexcept
      : group(group), n(n), shards(shards), tokens(tokens) {}
  WorkItem(const WorkItem&) = delete;
  WorkItem& operator=(const WorkItem&) = delete;
  virtual ~WorkItem() = default;

  /// Run one token: claim and run shards, capturing exceptions in the
  /// group. `this` may be dead on return.
  void execute();

  virtual void run_shard(unsigned shard, std::uint64_t begin,
                         std::uint64_t end) = 0;

  TaskGroup* const group;
  const std::uint64_t n;
  const unsigned shards;
  std::atomic<std::uint64_t> cursor{0};
  std::atomic<unsigned> tokens;
};

}  // namespace detail

/// Fixed set of worker threads serving one FIFO. All submission goes
/// through TaskGroup; the executor itself only schedules. One
/// process-wide instance (session()) serves every layer of the stack;
/// constructing private executors is reserved for tests and benches.
class Executor {
 public:
  /// `threads` 0 means std::thread::hardware_concurrency().
  explicit Executor(unsigned threads = 0);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Joins the workers after the queue drains. All TaskGroups submitted to
  /// this executor must have completed (their destructors wait).
  ~Executor();

  unsigned workers() const noexcept;

  /// The process-wide executor every layer submits to. Created on first
  /// use with configure_session()'s thread count, else the
  /// DNNLIFE_EXECUTOR_THREADS environment variable, else the hardware
  /// concurrency.
  static Executor& session();

  /// Size (or re-size) the session executor. Sizing happens once at
  /// startup in production (--executor-threads); re-configuration is a
  /// test affordance and requires the session to be idle (no tasks in
  /// flight, no TaskGroups alive on it).
  static void configure_session(unsigned threads);

 private:
  friend class TaskGroup;

  /// Queue `copies` references to `item` (pre-counted in its group).
  void enqueue(detail::WorkItem* item, std::size_t copies);

  /// Run work (or park) until `group` has no pending units left.
  void wait_for(TaskGroup& group);

  /// Wake parked waiters after a group completed.
  void notify_completion();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A handle over a set of tasks submitted together: submit / submit_bulk
/// then wait(), which runs pending pool work while blocked (nested
/// fan-outs on the shared pool cannot deadlock) and rethrows the first
/// exception any task raised. Reusable after wait(); the destructor waits
/// for stragglers (discarding errors — call wait() to observe them).
/// Submission is thread-safe (the pending count is atomic and the queue
/// is locked), and tasks may submit to their own group or to other
/// groups freely. The one rule: a waiter is only guaranteed to cover
/// submissions that happened-before its wait() or were made from a task
/// the group already counted — if pending can transiently drain to zero
/// while an unrelated thread races a fresh submit in, wait() may return
/// before that submission (SweepScheduler's admission chain is the
/// canonical way to keep the count covered).
class TaskGroup {
 public:
  explicit TaskGroup(Executor& executor = Executor::session())
      : executor_(&executor) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  ~TaskGroup() {
    if (pending_.load(std::memory_order_acquire) != 0) executor_->wait_for(*this);
  }

  /// Submit one task: one heap allocation holding the callable.
  template <class Fn>
  void submit(Fn&& fn) {
    submit_bulk_impl(1, 1, 1,
                     [fn = std::forward<Fn>(fn)](unsigned, std::uint64_t,
                                                 std::uint64_t) mutable {
                       fn();
                     });
  }

  /// Range submission: run fn(shard, begin, end) over [0, n) split into
  /// `shards` contiguous ranges (util::shard_range — the partition is a
  /// pure function of (n, shards), never of the worker count). ONE heap
  /// allocation and min(shards, workers + 1) queue pushes total; workers
  /// claim shards from an atomic cursor, and the submitting thread's
  /// wait() participates. Exceptions are captured per shard (first wins)
  /// and rethrown by wait().
  template <class Fn>
  void submit_bulk(std::uint64_t n, unsigned shards, Fn&& fn) {
    DNNLIFE_EXPECTS(shards >= 1, "need at least one shard");
    if (n == 0) return;
    submit_bulk_impl(n, shards, shards, std::forward<Fn>(fn));
  }

  /// Item submission under a concurrency budget: run fn(index) for every
  /// index in [0, n), at most `budget` concurrently (a budget of 0 means
  /// the hardware count — per-call thread counts are budgets here). One
  /// allocation, min(budget, n) pushes.
  template <class Fn>
  void submit_items(std::size_t n, unsigned budget, Fn&& fn) {
    if (n == 0) return;
    budget = resolve_thread_count(budget);
    submit_bulk_impl(
        n, n > ~0u ? ~0u : static_cast<unsigned>(n), budget,
        [fn = std::forward<Fn>(fn)](unsigned, std::uint64_t begin,
                                    std::uint64_t end) mutable {
          for (std::uint64_t i = begin; i < end; ++i)
            fn(static_cast<std::size_t>(i));
        });
  }

  /// Block until every submitted unit finished, running pending pool work
  /// (the group's own queued items first) while waiting; parks only when
  /// the queue is empty. Rethrows the first captured exception and resets
  /// it, leaving the group reusable.
  void wait();

  std::size_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

 private:
  friend class Executor;
  friend struct detail::WorkItem;

  template <class Fn>
  struct ItemOf final : detail::WorkItem {
    ItemOf(TaskGroup* group, std::uint64_t n, unsigned shards,
           unsigned tokens, Fn fn)
        : WorkItem(group, n, shards, tokens), fn(std::move(fn)) {}
    void run_shard(unsigned shard, std::uint64_t begin,
                   std::uint64_t end) override {
      fn(shard, begin, end);
    }
    Fn fn;
  };

  template <class Fn>
  void submit_bulk_impl(std::uint64_t n, unsigned shards, unsigned budget,
                        Fn&& fn) {
    const unsigned tokens = token_count(shards, budget);
    auto* item = new ItemOf<std::decay_t<Fn>>(this, n, shards, tokens,
                                              std::forward<Fn>(fn));
    pending_.fetch_add(1, std::memory_order_acq_rel);
    executor_->enqueue(item, tokens);
  }

  /// Queue pushes for a submission: enough tokens that every worker plus
  /// the waiting submitter can participate, never more than the budget
  /// (the concurrency cap) or the shard count (idle tokens would be popped
  /// and retired for nothing).
  unsigned token_count(unsigned shards, unsigned budget) const noexcept;

  void record_error(std::exception_ptr error);
  void finish_one();

  Executor* executor_;
  std::atomic<std::size_t> pending_{0};
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

/// Run fn(shard, begin, end) over [0, n) split into min(threads, n)
/// contiguous ranges. `threads` is a concurrency budget on the session
/// executor (<= 1 runs inline with no submission at all). The shard
/// partition is budget-dependent, so callers that need budget-invariant
/// results must make per-shard work a pure function of the item index
/// (see fast_simulator.cpp).
template <class Fn>
void parallel_for_shards(std::uint64_t n, unsigned threads, Fn&& fn) {
  threads = resolve_thread_count(threads);
  if (n < threads) threads = static_cast<unsigned>(n == 0 ? 1 : n);
  if (threads <= 1) {
    if (n > 0) fn(0u, std::uint64_t{0}, n);
    return;
  }
  TaskGroup group;
  group.submit_bulk(n, threads, std::forward<Fn>(fn));
  group.wait();
}

}  // namespace dnnlife::util
