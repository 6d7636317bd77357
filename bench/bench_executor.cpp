// The session executor's hot paths against the pre-refactor pool: task
// spawn overhead, bulk fan-out submission (O(min(shards, workers)) pushes
// vs one queued std::function per shard), nested fan-outs (the sweep
// stack's shape — the legacy design spawned a fresh inner pool per outer
// job, the executor runs everything on one set of workers), and the
// end-to-end case CI gates on: a 120-point generated sweep run
// oversubscribed (--jobs=HW --threads=HW), which the old nested pools
// turned into jobs x threads live threads and the executor serves with HW
// workers.
//
//   bench_executor [--threads=N] [--json=PATH]
//
// --threads sizes the session executor (default 0 = hardware concurrency).
// --json writes the measurements for the CI regression gate
// (bench/bench_executor_reference.json, 2x budget).
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/scenario_generator.hpp"
#include "core/scenario_suite.hpp"
#include "util/cli.hpp"
#include "util/executor.hpp"
#include "util/table.hpp"

namespace {

using namespace dnnlife;

/// The pre-refactor util::ThreadPool, embedded verbatim so the comparison
/// keeps measuring the real legacy design after the shim replaced it: one
/// mutex-guarded FIFO of std::function, fresh threads per pool instance.
class LegacyThreadPool {
 public:
  explicit LegacyThreadPool(unsigned thread_count = 0) {
    thread_count = util::resolve_thread_count(thread_count);
    workers_.reserve(thread_count);
    for (unsigned t = 0; t < thread_count; ++t)
      workers_.emplace_back([this] { worker_loop(); });
  }

  LegacyThreadPool(const LegacyThreadPool&) = delete;
  LegacyThreadPool& operator=(const LegacyThreadPool&) = delete;

  ~LegacyThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    ready_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++pending_;
      queue_.push_back(std::move(task));
    }
    ready_.notify_one();
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return pending_ == 0; });
    if (error_) {
      std::exception_ptr error = std::exchange(error_, nullptr);
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--pending_ == 0) idle_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Median-of-3 runs of `body` (the sweep case runs once — it is seconds
/// long and CI budgets 2x).
template <class Body>
double median_seconds(Body&& body, int repeats = 3) {
  std::vector<double> times;
  for (int run = 0; run < repeats; ++run) {
    const auto start = std::chrono::steady_clock::now();
    body();
    times.push_back(seconds_since(start));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// The CI sweep grid: 120 fast points (one inference on a tiny NPU).
std::string sweep_spec() {
  return R"({
  "name": "bench-grid",
  "base": {
    "hardware": "tpu-like-npu",
    "npu": {"array_dim": 32, "fifo_tiles": 2},
    "aging_model": "arrhenius-nbti",
    "phases": [{"network": "custom_mnist", "inferences": 2}]
  },
  "axes": [
    {"parameter": "temperature_c", "values": [25, 55, 85]},
    {"parameter": "vdd", "values": [0.95, 1.0]},
    {"parameter": "activity_scale", "values": [0.0, 1.0]},
    {"parameter": "policy", "values": ["no-mitigation", "inversion"]}
  ],
  "jitter": {"seed": 7, "samples": 5, "temperature_c": 3.0}
})";
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 0;
  std::string json_path;
  util::FlagTable flags("bench_executor");
  flags.add(util::unsigned_flag("threads", threads,
                               "session executor workers (0 = hardware)"))
      .add(util::text_flag("json", "PATH", json_path, "results as JSON"));
  if (!flags.parse(argc, argv)) return 1;
  util::Executor::configure_session(threads);
  const unsigned workers = util::Executor::session().workers();
  benchutil::print_heading("Session executor vs legacy thread pool");
  std::cout << "executor workers: " << workers << "\n";

  // -- task spawn overhead: 100k empty tasks through one group / pool ----------
  constexpr int kSpawns = 100'000;
  const double spawn_seconds = median_seconds([&] {
    util::TaskGroup group(util::Executor::session());
    for (int i = 0; i < kSpawns; ++i) group.submit([] {});
    group.wait();
  });
  const double legacy_spawn_seconds = median_seconds([&] {
    LegacyThreadPool pool(workers);
    for (int i = 0; i < kSpawns; ++i) pool.submit([] {});
    pool.wait();
  });
  std::cout << "task spawn overhead:   "
            << util::Table::num(spawn_seconds / kSpawns * 1e9, 1) << " ns/task"
            << "  (legacy pool "
            << util::Table::num(legacy_spawn_seconds / kSpawns * 1e9, 1)
            << " ns/task)\n";

  // -- bulk fan-out: 10M elements, 4 shards per worker ------------------------
  constexpr std::uint64_t kElems = 10'000'000;
  const unsigned shards = 4 * workers;
  std::vector<std::uint64_t> sums(shards);
  const auto shard_body = [&](unsigned shard, std::uint64_t begin,
                              std::uint64_t end) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = begin; i < end; ++i) sum += i * 2654435761u;
    sums[shard] = sum;
  };
  const double bulk_seconds = median_seconds([&] {
    util::TaskGroup group(util::Executor::session());
    group.submit_bulk(kElems, shards, shard_body);
    group.wait();
  });
  const double legacy_bulk_seconds = median_seconds([&] {
    LegacyThreadPool pool(workers);
    for (unsigned s = 0; s < shards; ++s)
      pool.submit([&shard_body, shards, s] {
        const auto [begin, end] = util::shard_range(kElems, shards, s);
        shard_body(s, begin, end);
      });
    pool.wait();
  });
  std::cout << "bulk fan-out (10M):    "
            << util::Table::num(kElems / bulk_seconds / 1e6, 1) << " Melem/s"
            << "  (legacy pool "
            << util::Table::num(kElems / legacy_bulk_seconds / 1e6, 1)
            << " Melem/s)\n";

  // -- nested fan-out: the sweep stack's shape ---------------------------------
  // 64 outer jobs, each fanning an inner bulk over 100k elements and
  // waiting. Executor: everything on `workers` threads, outer waiters help.
  // Legacy: an outer pool plus a FRESH INNER POOL PER JOB — the
  // jobs x threads thread explosion the refactor removed.
  constexpr int kOuter = 64;
  constexpr std::uint64_t kInner = 100'000;
  std::vector<std::uint64_t> nested_sums(kOuter);
  const auto inner_sum = [](std::uint64_t begin, std::uint64_t end) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = begin; i < end; ++i) sum += i ^ (i >> 7);
    return sum;
  };
  const double nested_seconds = median_seconds([&] {
    util::TaskGroup outer(util::Executor::session());
    outer.submit_items(kOuter, workers, [&](std::size_t job) {
      util::TaskGroup inner(util::Executor::session());
      std::vector<std::uint64_t> parts(4);
      inner.submit_bulk(kInner, 4,
                        [&](unsigned shard, std::uint64_t begin,
                            std::uint64_t end) {
                          parts[shard] = inner_sum(begin, end);
                        });
      inner.wait();
      nested_sums[job] = parts[0] + parts[1] + parts[2] + parts[3];
    });
    outer.wait();
  });
  const double legacy_nested_seconds = median_seconds([&] {
    LegacyThreadPool outer(workers);
    for (int job = 0; job < kOuter; ++job)
      outer.submit([&, job] {
        LegacyThreadPool inner(workers);  // fresh pool per job, as before
        std::mutex sum_mutex;
        std::uint64_t total = 0;
        for (unsigned s = 0; s < 4; ++s)
          inner.submit([&, s] {
            const auto [begin, end] = util::shard_range(kInner, 4, s);
            const std::uint64_t part = inner_sum(begin, end);
            const std::lock_guard<std::mutex> lock(sum_mutex);
            total += part;
          });
        inner.wait();
        nested_sums[job] = total;
      });
    outer.wait();
  });
  std::cout << "nested fan-out (64x4): "
            << util::Table::num(nested_seconds, 3) << " s"
            << "  (legacy nested pools "
            << util::Table::num(legacy_nested_seconds, 3) << " s)\n";

  // -- the oversubscribed sweep CI gates on ------------------------------------
  core::ScenarioSuite suite;
  for (core::GeneratedScenario& point :
       core::ScenarioGenerator::parse(sweep_spec()).generate())
    suite.add(core::SuiteEntry{point.name + ".json", std::move(point.spec),
                               std::move(point.document)});
  core::SuiteRunOptions options;
  options.jobs = workers;                 // every budget maxed: the worst
  options.threads_per_scenario = workers; // case the old design handled by
                                          // spawning jobs x threads threads
  const auto sweep_start = std::chrono::steady_clock::now();
  const std::vector<core::SuiteOutcome> outcomes = suite.run(options);
  const double sweep_seconds = seconds_since(sweep_start);
  std::size_t failed = 0;
  for (const core::SuiteOutcome& outcome : outcomes)
    if (!outcome.ok) ++failed;
  std::cout << "oversubscribed sweep:  " << outcomes.size() << " points, "
            << "--jobs=" << workers << " --threads=" << workers << ": "
            << util::Table::num(sweep_seconds, 3) << " s";
  if (failed != 0) std::cout << "  (" << failed << " FAILED)";
  std::cout << "\n";
  if (outcomes.size() != 120 || failed != 0) {
    std::cerr << "sweep self-check failed: expected 120 ok outcomes\n";
    return 1;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"workers\": " << workers << ",\n"
        << "  \"spawn_ns_per_task\": "
        << util::Table::num(spawn_seconds / kSpawns * 1e9, 1) << ",\n"
        << "  \"legacy_spawn_ns_per_task\": "
        << util::Table::num(legacy_spawn_seconds / kSpawns * 1e9, 1) << ",\n"
        << "  \"bulk_melems_per_second\": "
        << util::Table::num(kElems / bulk_seconds / 1e6, 1) << ",\n"
        << "  \"legacy_bulk_melems_per_second\": "
        << util::Table::num(kElems / legacy_bulk_seconds / 1e6, 1) << ",\n"
        << "  \"nested_fanout_seconds\": "
        << util::Table::num(nested_seconds, 4) << ",\n"
        << "  \"legacy_nested_fanout_seconds\": "
        << util::Table::num(legacy_nested_seconds, 4) << ",\n"
        << "  \"oversubscribed_sweep_seconds\": "
        << util::Table::num(sweep_seconds, 3) << "\n"
        << "}\n";
    if (!out) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
  }
  return 0;
}
