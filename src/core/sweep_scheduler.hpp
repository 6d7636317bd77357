// Incremental sweep execution on the session executor.
//
// ScenarioSuite::run is batch-shaped: hand it every point up front, get
// every outcome back at the end. The adaptive-grid work the ROADMAP calls
// for needs the opposite: decide the NEXT points from the outcomes of the
// first ones, while earlier points are still running. SweepScheduler is
// that surface — a long-lived object wrapping scenario execution
// (retry/soft-deadline/fault-hook/journal machinery included) that accepts
// point submissions at any time and hands back a future-like Handle per
// point. ScenarioSuite::run is now a thin batch loop over it, so both
// entry points share one execution path.
//
// Scheduling: all points run as tasks of one TaskGroup on the process-wide
// executor (util::Executor::session()), never on private
// threads. `jobs` is an admission budget — at most that many points are in
// flight; each finishing point launches the next queued one from inside
// its own task, so the group's pending count covers the whole queue and
// wait_all() needs no extra bookkeeping. Handles that are waited on before
// completion *help* the executor (run pending tasks) instead of sleeping,
// so polling a handle from a worker cannot deadlock the pool.
//
// Row-payload sharing: every point that simulates needs the packed row
// payloads (sim::EncodedRows) of its phase networks, and points of one
// sweep often share them — a policy or region grid over one network,
// format and hardware dataflow. The first such point claims the key and
// builds it; later ones park off the queue (not counted against `jobs`)
// and are released the moment the builder publishes the artifact, before
// its own simulation runs. If the builder fails first, a parked sibling
// claims the key instead. No thread ever blocks on a build. An artifact is
// owned only by points yet to simulate against it and by running
// simulations, so it is freed before evaluation as in a private run.
// Points that never simulate (cache or store hits) never wait on a key.
//
// Work-conserving budgets: parked points hold no admission slot. At each
// stage boundary run_scenario asks for the stage's budget
// (RunScenarioOptions::stage_threads) and gets stage_threads(): its own
// `threads` plus `threads` per slot nobody holds. So a shared build runs
// on the slots of the siblings parked on it, and a single-flight leader's
// simulation on those of its parked siblings. Borrowed slots are not
// reserved: a point admitted later still takes its own slot, so budgets
// may briefly add up past `jobs` × `threads`; the executor's fixed worker
// count is the hard bound, and no result depends on a budget. With no
// lent-budget bookkeeping, a failed or timed-out borrower has nothing to
// hand back.
//
// Soft deadlines are cooperative: every attempt runs inline on the pool,
// deadline or not, and run_scenario stops a late one at its next stage
// boundary. A timed-out builder or fingerprint leader hands its key over
// like any failed point, and nothing it touched outlives the attempt.
//
// Journal integration matches the suite runner: fresh outcomes are
// appended (flushed) before they are announced, and submitting an index
// the journal already holds yields an immediately-done "replayed" Handle
// carrying the journal's record — callers distinguish the two with
// Handle::replayed().
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "core/scenario_suite.hpp"

namespace dnnlife::util {
class Executor;
}

namespace dnnlife::core {

class SweepScheduler {
 public:
  struct Options {
    /// Admission budget: points in flight at once (0 = hardware
    /// concurrency). A budget, not a pool size: slots no point holds are
    /// lent to the running points' stages (see stage_threads).
    unsigned jobs = 0;
    /// Override every spec's own `threads`, the floor of each stage's
    /// budget (see stage_threads); 0 keeps the per-document values.
    unsigned threads_per_scenario = 0;
    /// Extra attempts after a failed or timed-out attempt (0 = fail fast).
    unsigned retries = 0;
    /// Soft per-attempt deadline in seconds (0 = none); see
    /// SuiteRunOptions::soft_deadline_seconds. Each attempt passes it to
    /// run_scenario as RunScenarioOptions::deadline.
    double soft_deadline_seconds = 0.0;
    /// Fault-injection hook (tests, sweep_runner --inject-fault).
    SuiteFaultHook fault_hook;
    /// Durable result journal. Fresh outcomes are appended before being
    /// announced; already-journaled indices come back as replayed Handles.
    /// Header validation against a suite stays the caller's duty
    /// (ScenarioSuite::run does it) — the scheduler does not know what
    /// sweep the journal belongs to.
    SweepJournal* journal = nullptr;
    /// Invoked after each fresh point finishes; serialized internally.
    std::function<void(const SuiteProgress&)> progress;
    /// Progress denominator. 0 means "count submissions so far" — right
    /// for open-ended adaptive use; batch callers pass their plan size.
    std::size_t expected_total = 0;
    /// Shared duty-state cache (see core/sim_cache.hpp). Non-null enables
    /// content-addressed simulation reuse: points run through the
    /// cache-aware run_scenario, and the admission chain groups queued
    /// points by simulation fingerprint — while one point of a group
    /// simulates, its siblings are parked off the queue and only released
    /// once the shared entry is committed (single-flight: exactly one
    /// simulation per distinct fingerprint, even at full concurrency).
    /// Shared with the caller, who keeps it (and its counters) across
    /// schedulers; the scheduler's copy goes when the scheduler does.
    std::shared_ptr<SimCache> sim_cache;
    /// Disk tier under the cache (core/sim_store.hpp). Non-null also
    /// enables the single-flight grouping above (with or without a
    /// memory cache): the leader of a fingerprint group durably
    /// publishes its entry before its siblings are released, so even
    /// store-only runs — and sibling shards sharing the directory —
    /// simulate each distinct stream once. Shared like the cache.
    std::shared_ptr<SimStore> sim_store;
  };

  struct PointState;

  /// Row-payload sharing counters.
  struct RowsStats {
    std::size_t builds = 0;  ///< artifacts built and published by points
    std::size_t parks = 0;   ///< times a point parked on an in-flight build
    std::size_t held = 0;    ///< keys alive, being built or waited for
  };

  /// Future-like view of one submitted point. Copyable (shared state);
  /// outcome()/record() block until the point finished, running pending
  /// executor work while they wait.
  class Handle {
   public:
    Handle() = default;

    bool valid() const noexcept { return state_ != nullptr; }
    std::size_t index() const;

    /// True when this submission was satisfied from the journal instead of
    /// being executed. Replayed handles carry a record() but no outcome().
    bool replayed() const;

    /// Non-blocking completion poll.
    bool done() const;

    /// The executed outcome (blocks until done, helping the executor).
    /// Throws std::logic_error on a replayed handle — the journal stores
    /// summary records, not full scenario results.
    const SuiteOutcome& outcome() const;

    /// Move the outcome out (same blocking/throwing rules as outcome()).
    /// The handle stays done() but its outcome is gone afterwards.
    SuiteOutcome take_outcome();

    /// The summary record: the journal's for replayed handles, freshly
    /// built for executed ones. Blocks until done.
    const SuiteRecord& record() const;

   private:
    friend class SweepScheduler;
    explicit Handle(std::shared_ptr<PointState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<PointState> state_;
  };

  explicit SweepScheduler(Options options);

  SweepScheduler(const SweepScheduler&) = delete;
  SweepScheduler& operator=(const SweepScheduler&) = delete;

  /// Waits for every in-flight and queued point (like wait_all, but
  /// swallowing errors — call wait_all() to observe them).
  ~SweepScheduler();

  /// Submit the scenario at `global_index` of its suite. Thread-safe, and
  /// legal while earlier points are running — including from a progress
  /// callback or another point's task. Each index may be submitted once
  /// per scheduler; an index the journal completed *before this session*
  /// returns a replayed Handle instead of executing.
  Handle submit(SuiteEntry entry, std::size_t global_index);

  /// Convenience for generated points (the adaptive-grid path): assigns
  /// the next unused global index itself and synthesises the entry from
  /// the spec's name.
  Handle submit(ScenarioSpec spec);

  /// Block until every submitted point has finished (helping the executor
  /// while blocked); rethrows the first infrastructure error any point
  /// task raised (scenario *failures* are outcomes, not exceptions).
  /// Callers must not race fresh submit() calls against wait_all() from
  /// other threads — points submitted from running tasks are always
  /// covered, external threads submitting concurrently are not.
  void wait_all();

  /// Fresh (non-replayed) points submitted / finished so far.
  std::size_t submitted() const;
  std::size_t completed() const;

  RowsStats rows_stats() const;

  /// The budget of one stage of a point whose own budget is `own`, with
  /// `in_flight` of `jobs` admission slots held: own × (1 + idle slots),
  /// computed without wrapping, capped at max(own, workers) and never
  /// below own. An own budget of 0 (hardware) stays 0.
  static unsigned stage_threads(unsigned own, unsigned jobs,
                                unsigned in_flight, unsigned workers) noexcept;

 private:
  struct Impl;
  Handle submit_locked(SuiteEntry entry, std::size_t global_index);
  std::unique_ptr<Impl> impl_;
};

}  // namespace dnnlife::core
