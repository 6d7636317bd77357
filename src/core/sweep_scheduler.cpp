#include "core/sweep_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sim_cache.hpp"
#include "core/sim_store.hpp"
#include "core/sweep_journal.hpp"
#include "sim/encoded_rows.hpp"
#include "util/executor.hpp"
#include "util/table.hpp"

namespace dnnlife::core {

namespace {

/// What one attempt produced; moved into the outcome of the last attempt.
struct AttemptOutcome {
  bool ok = false;
  bool timed_out = false;
  std::string error;
  std::optional<ScenarioResult> result;
};

/// Run one attempt: fault hook, then the scenario, from a fresh spec copy.
/// The soft deadline is cooperative: run_scenario checks it at its stage
/// boundaries, so a late attempt stops at the next one and returns its
/// budget like any failure — nothing outlives the attempt.
AttemptOutcome execute_attempt(const ScenarioSpec& spec,
                               std::size_t global_index, unsigned attempt,
                               double soft_deadline_seconds,
                               const SuiteFaultHook& fault_hook,
                               RunScenarioOptions run_options) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const std::chrono::duration<double> budget(soft_deadline_seconds);
  // A budget past the clock's range never expires (the default deadline).
  if (soft_deadline_seconds > 0.0 && budget < Clock::time_point::max() - start)
    run_options.deadline =
        start + std::chrono::duration_cast<Clock::duration>(budget);
  AttemptOutcome out;
  try {
    if (fault_hook) fault_hook(SuiteFaultContext{global_index, attempt});
    out.result = run_scenario(spec, run_options);
    out.ok = true;
  } catch (const DeadlineExceeded&) {
    out.timed_out = true;
    out.error = "soft deadline of " +
                util::Table::num(soft_deadline_seconds, 3) + " s exceeded";
  } catch (const std::exception& error) {
    out.error = error.what();
  } catch (...) {
    out.error = "unknown error";
  }
  return out;
}

}  // namespace

/// Shared state behind a Handle. `done` is stored (release) once the
/// outcome is in place and announced; take_outcome() loads it (acquire)
/// before it touches the outcome.
struct SweepScheduler::PointState {
  std::size_t index = 0;
  SuiteEntry entry;
  /// Simulation fingerprint, computed at submit time when a sim cache or
  /// store is active (run_point fills it in lazily otherwise, for the
  /// record).
  std::string fingerprint;
  /// Claims (guarded by the scheduler mutex): whether the point runs as a
  /// hit and needs no payload, the keys it holds claimed, and the
  /// published payloads it holds until its simulation takes them.
  bool hit = false;
  std::vector<std::string> claims;
  std::vector<std::shared_ptr<const sim::EncodedRows>> rows;

  std::atomic<bool> done{false};
  std::optional<SuiteOutcome> outcome;
};

SuiteOutcome SweepScheduler::Handle::take_outcome() {
  if (state_ == nullptr) throw std::logic_error("empty sweep handle");
  const std::string point = "sweep point " + std::to_string(state_->index);
  if (!state_->done.load(std::memory_order_acquire))
    throw std::logic_error(point + " has not finished; call wait_all() first");
  if (!state_->outcome)
    throw std::logic_error("the outcome of " + point + " was already taken");
  SuiteOutcome taken = std::move(*state_->outcome);
  state_->outcome.reset();
  return taken;
}

struct SweepScheduler::Impl {
  explicit Impl(Options options)
      : options(std::move(options)),
        executor(&util::Executor::session()),
        jobs(util::resolve_thread_count(this->options.jobs)),
        group(*executor) {}

  void launch_locked(std::shared_ptr<PointState> state) {
    group.submit([this, state = std::move(state)] { run_point(*state); });
  }

  void run_point(PointState& state);

  bool reuse() const {
    return options.sim_cache != nullptr || options.sim_store != nullptr;
  }

  // Claims; every *_locked member runs under `mutex`.
  bool acquire_locked(const std::shared_ptr<PointState>& state);
  void release_locked(const std::string& key, bool hits);
  std::shared_ptr<const sim::EncodedRows> lookup_rows(PointState& state,
                                                      const std::string& key);
  void publish_rows(PointState& state,
                    std::shared_ptr<const sim::EncodedRows> rows);
  void top_up_locked();

  Options options;
  util::Executor* executor;
  unsigned jobs;

  // Guards everything below but the group. The progress callback runs
  // under it (serialized, like the suite runner's), so it must not call
  // into the scheduler. No locked path runs executor work.
  mutable std::mutex mutex;
  std::deque<std::shared_ptr<PointState>> queue;
  // One claim per key: a simulation fingerprint (hex digits only) or a
  // sim::EncodedRows key (always holds a '|'), so the two never collide.
  // A payload claim keeps its published artifact — weak, because only
  // points yet to simulate and running streams own it, so it is freed
  // before evaluation as in a private run.
  struct Claim {
    bool payload = false;
    bool claimed = false;
    std::weak_ptr<const sim::EncodedRows> rows;
    std::vector<std::shared_ptr<PointState>> parked;
  };
  std::unordered_map<std::string, Claim> claims;
  RowsStats rows_stats;
  unsigned in_flight = 0;
  std::size_t submitted = 0;
  std::size_t completed = 0;

  // Declared last, so destroyed first: ~TaskGroup waits for the points
  // still queued or running, whose tails read every member above.
  util::TaskGroup group;
};

void SweepScheduler::Impl::run_point(PointState& state) {
  const SuiteEntry& entry = state.entry;
  SuiteOutcome outcome;
  outcome.index = state.index;
  outcome.path = entry.path;
  outcome.name = entry.spec.name;
  // The fingerprint rides in every outcome/record (hits are verifiable
  // from sweep artifacts); submit() already computed it when a cache is
  // active.
  if (state.fingerprint.empty())
    state.fingerprint = simulation_fingerprint(entry.spec);
  outcome.fingerprint = state.fingerprint;
  const auto start = std::chrono::steady_clock::now();
  RunScenarioOptions run_options;
  run_options.sim_cache = options.sim_cache;
  run_options.sim_store = options.sim_store;
  // Attempts run inline, so the callbacks never outlive this task.
  run_options.stage_threads = [this](unsigned own) {
    const std::lock_guard<std::mutex> lock(mutex);
    return SweepScheduler::stage_threads(own, jobs, in_flight,
                                         executor->workers());
  };
  if (!state.hit) {
    run_options.lookup_encoded_rows = [this, &state](const std::string& key) {
      return lookup_rows(state, key);
    };
    run_options.publish_encoded_rows =
        [this, &state](std::shared_ptr<const sim::EncodedRows> rows) {
          publish_rows(state, std::move(rows));
        };
  }
  AttemptOutcome last;
  unsigned attempt = 1;
  for (;; ++attempt) {
    ScenarioSpec spec = entry.spec;  // fresh-attempt isolation
    if (options.threads_per_scenario != 0)
      spec.threads = options.threads_per_scenario;
    last = execute_attempt(spec, outcome.index, attempt,
                           options.soft_deadline_seconds, options.fault_hook,
                           run_options);
    if (last.ok || attempt > options.retries) break;
  }
  outcome.ok = last.ok;
  outcome.timed_out = last.timed_out;
  outcome.attempts = attempt;
  outcome.error = std::move(last.error);
  outcome.result = std::move(last.result);
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Durability before reporting: once the progress callback announces a
  // point, a crash right after must still find it journaled. A journal
  // write failure still completes the handle (the outcome is valid)
  // before the error propagates to wait_all().
  std::exception_ptr journal_error;
  if (options.journal != nullptr) {
    try {
      options.journal->append(make_suite_record(outcome));
    } catch (...) {
      journal_error = std::current_exception();
    }
  }
  const bool point_ok = outcome.ok;
  state.outcome = std::move(outcome);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    ++completed;
    if (options.progress) {
      // Serialized by `mutex`, like the suite runner's progress path.
      SuiteProgress progress;
      progress.completed = completed;
      progress.total =
          options.expected_total != 0 ? options.expected_total : submitted;
      progress.outcome = &*state.outcome;
      options.progress(progress);
    }
    // After the callback read it, so an early take_outcome cannot race it.
    state.done.store(true, std::memory_order_release);
    // Release this point's claims, its fingerprint last, so that a
    // sibling taking a failed leader's fingerprint over finds its payload
    // keys free. Releases happen inside this still-counted task, so
    // wait_all()'s group.wait() covers released points with no extra
    // machinery.
    for (auto key = state.claims.rbegin(); key != state.claims.rend(); ++key)
      release_locked(*key, point_ok && *key == state.fingerprint);
    state.claims.clear();
    state.rows.clear();
    std::erase_if(claims, [](const auto& claim) {
      return !claim.second.claimed && claim.second.parked.empty() &&
             claim.second.rows.expired();
    });
    // Admission chain: the next queued point is launched from inside this
    // still-counted task, so the group's pending count never drops to
    // zero while queued work remains. The top-up re-fills the admission
    // budget when a release just grew the queue while other slots sat
    // idle.
    if (!queue.empty()) {
      std::shared_ptr<PointState> next = std::move(queue.front());
      queue.pop_front();
      launch_locked(std::move(next));
    } else {
      --in_flight;
    }
    top_up_locked();
  }
  if (journal_error) std::rethrow_exception(journal_error);
}

void SweepScheduler::Impl::top_up_locked() {
  while (in_flight < jobs && !queue.empty()) {
    ++in_flight;
    std::shared_ptr<PointState> next = std::move(queue.front());
    queue.pop_front();
    launch_locked(std::move(next));
  }
}

/// Claim every key `state` needs, or — when another point holds any of
/// them — park on that key holding nothing, to try again once it is
/// released. With a reuse tier the fingerprint comes first: a committed
/// one makes the point a hit that needs no key. All-or-nothing, so a
/// claimant never waits on anyone: no thread ever blocks on a claim, and
/// claims cannot form a cycle.
bool SweepScheduler::Impl::acquire_locked(
    const std::shared_ptr<PointState>& state) {
  const auto claimed = [this](const std::string& key) {
    const auto found = claims.find(key);
    return found != claims.end() && found->second.claimed ? &found->second
                                                          : nullptr;
  };
  const std::string& fingerprint = state->fingerprint;
  if (reuse() && !state->hit && claimed(fingerprint) == nullptr)
    state->hit = (options.sim_cache != nullptr &&
                  options.sim_cache->contains(fingerprint)) ||
                 (options.sim_store != nullptr &&
                  options.sim_store->contains(fingerprint));
  if (state->hit) return true;
  std::vector<std::string> keys = encoded_rows_keys(state->entry.spec);
  if (reuse()) keys.insert(keys.begin(), fingerprint);
  for (const std::string& key : keys) {
    if (Claim* claim = claimed(key)) {
      claim->parked.push_back(state);
      if (claim->payload) ++rows_stats.parks;
      return false;
    }
  }
  for (std::string& key : keys) {
    Claim& claim = claims[key];
    claim.payload = key != fingerprint;
    if (auto rows = claim.rows.lock()) {
      state->rows.push_back(std::move(rows));
    } else {
      claim.claimed = true;
      state->claims.push_back(std::move(key));
    }
  }
  return true;
}

/// Release `key` and re-acquire the points parked on it in submission
/// order; the ready ones go to the queue front, ahead of later
/// submissions. `hits` releases the fingerprint of a leader that
/// succeeded: its siblings run as hits against the committed entry.
void SweepScheduler::Impl::release_locked(const std::string& key,
                                          bool hits) {
  Claim& claim = claims.at(key);
  claim.claimed = false;
  std::vector<std::shared_ptr<PointState>> waiting =
      std::exchange(claim.parked, {});
  std::vector<std::shared_ptr<PointState>> ready;
  for (std::shared_ptr<PointState>& point : waiting) {
    if (hits) point->hit = true;
    if (acquire_locked(point)) ready.push_back(std::move(point));
  }
  for (auto point = ready.rbegin(); point != ready.rend(); ++point)
    queue.push_front(std::move(*point));
}

/// The artifact for `key`: the point's own hold (handed over to its
/// stream), else a live pool entry (a retry), else null — build it.
std::shared_ptr<const sim::EncodedRows> SweepScheduler::Impl::lookup_rows(
    PointState& state, const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex);
  const auto held =
      std::find_if(state.rows.begin(), state.rows.end(),
                   [&](const auto& rows) { return rows->key() == key; });
  if (held != state.rows.end()) {
    std::shared_ptr<const sim::EncodedRows> rows = std::move(*held);
    state.rows.erase(held);
    return rows;
  }
  const auto found = claims.find(key);
  return found == claims.end() ? nullptr : found->second.rows.lock();
}

void SweepScheduler::Impl::publish_rows(
    PointState& state, std::shared_ptr<const sim::EncodedRows> rows) {
  const std::lock_guard<std::mutex> lock(mutex);
  const auto claimed =
      std::find(state.claims.begin(), state.claims.end(), rows->key());
  if (claimed == state.claims.end()) return;  // a private build
  state.claims.erase(claimed);
  claims.at(rows->key()).rows = rows;
  ++rows_stats.builds;
  // Released siblings launch from inside this still-counted task.
  release_locked(rows->key(), false);
  top_up_locked();
}

SweepScheduler::SweepScheduler(Options options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SweepScheduler::~SweepScheduler() {
  // ~Impl runs ~TaskGroup, which waits for stragglers (errors discarded).
}

SweepScheduler::Handle SweepScheduler::submit(SuiteEntry entry,
                                              std::size_t global_index) {
  Impl& impl = *impl_;
  if (impl.options.journal != nullptr &&
      impl.options.journal->completed(global_index))
    throw std::invalid_argument("sweep point " + std::to_string(global_index) +
                                " is already journaled; each index runs once");
  auto state = std::make_shared<PointState>();
  state->index = global_index;
  state->entry = std::move(entry);
  if (impl.reuse())
    state->fingerprint = simulation_fingerprint(state->entry.spec);
  const std::lock_guard<std::mutex> lock(impl.mutex);
  ++impl.submitted;
  if (impl.acquire_locked(state)) {
    if (impl.in_flight < impl.jobs) {
      ++impl.in_flight;
      impl.launch_locked(state);
    } else {
      impl.queue.push_back(state);
    }
  }
  return Handle(std::move(state));
}

void SweepScheduler::wait_all() { impl_->group.wait(); }

unsigned SweepScheduler::stage_threads(unsigned own, unsigned jobs,
                                       unsigned in_flight,
                                       unsigned workers) noexcept {
  if (own == 0) return 0;
  const std::uint64_t idle = jobs > in_flight ? jobs - in_flight : 0;
  // At most (2^32 - 1) × 2^32, so the product cannot wrap 64 bits.
  const std::uint64_t lent = std::uint64_t{own} * (idle + 1);
  return static_cast<unsigned>(
      std::min<std::uint64_t>(lent, std::max(own, workers)));
}

SweepScheduler::RowsStats SweepScheduler::rows_stats() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  RowsStats stats = impl_->rows_stats;
  stats.held = static_cast<std::size_t>(
      std::count_if(impl_->claims.begin(), impl_->claims.end(),
                    [](const auto& claim) { return claim.second.payload; }));
  return stats;
}

}  // namespace dnnlife::core
