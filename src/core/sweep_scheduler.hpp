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
// Claims: before a point runs it claims keys in one claim table, all or
// nothing. With a sim cache or store the first key is its simulation
// fingerprint: a committed fingerprint makes the point a hit that needs
// nothing more. A point that will simulate also needs the packed row
// payloads (sim::EncodedRows) of its phase networks, keyed by network,
// format and hardware dataflow, which points of one sweep often share.
// The first claimant of a key runs (it simulates, or builds and publishes
// the payload); a later one that finds any of its keys claimed parks on
// it holding nothing, off the queue and without an admission slot. A
// payload key is released when it is published or when its claimant
// finishes; a fingerprint when its leader finishes. A release re-admits
// the parked points, in submission order, to the queue front. The
// siblings of a leader that succeeded run as hits against its committed
// entry; after a failure they claim again, so the first one takes the key
// over and the rest park on it. No thread ever blocks on a claim. An
// artifact is owned only by points yet to simulate against it and by
// running simulations, so it is freed before evaluation as in a private
// run.
//
// Work-conserving budgets: parked points hold no admission slot. At each
// stage boundary run_scenario asks for the stage's budget
// (RunScenarioOptions::stage_threads) and gets stage_threads(): its own
// `threads` plus `threads` per slot nobody holds. So a shared build, or a
// fingerprint leader's simulation, runs on the slots of the points parked
// on its claims. Borrowed slots are not reserved: a point admitted later
// still takes its own slot, so budgets may briefly add up past `jobs` ×
// `threads`; the executor's fixed worker count is the hard bound, and no
// result depends on a budget. With no lent-budget bookkeeping, a failed
// or timed-out borrower has nothing to hand back.
//
// Soft deadlines are cooperative: every attempt runs inline on the pool,
// deadline or not, and run_scenario stops a late one at its next stage
// boundary. A timed-out claimant releases its keys like any failed point,
// and nothing it touched outlives the attempt.
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
  /// Every sweep setting, shared with SuiteRunOptions (which adds only
  /// the shard); see core/scenario_suite.hpp.
  using Options = SweepOptions;

  struct PointState;

  /// Row-payload claim counters (fingerprint claims are not counted).
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
