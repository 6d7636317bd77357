// Batch sweep execution on the session executor.
//
// A sweep is a batch of independent points (policy x network x hardware,
// as in the paper's Figs. 9 and 11). SweepScheduler runs one: submit
// every point, wait_all(), then take each point's outcome from its
// Handle. It wraps scenario execution with the retry, soft-deadline,
// fault-hook and journal machinery; ScenarioSuite::run is a batch loop
// over it, so every sweep shares one execution path.
//
// Scheduling: all points run as tasks of one TaskGroup on the process-wide
// executor (util::Executor::session()), never on private
// threads. `jobs` is an admission budget — at most that many points are in
// flight; each finishing point launches the next queued one from inside
// its own task, so the group's pending count covers the whole queue and
// wait_all() needs no extra bookkeeping.
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
// the journal already holds, recovered at open or appended by this
// scheduler, throws: completed work is never redone.
#pragma once

#include <cstddef>
#include <memory>

#include "core/scenario_suite.hpp"

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

  /// One submitted point. Copyable (shared state); its outcome is taken
  /// once, after wait_all().
  class Handle {
   public:
    Handle() = default;

    /// Move the finished point's outcome out. Throws std::logic_error on
    /// an empty handle, before the point finished, or when the outcome
    /// was already taken.
    SuiteOutcome take_outcome();

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

  /// Submit the scenario at `global_index` of its suite; each index once.
  /// Throws std::invalid_argument when the journal already holds the
  /// index. Not to be called from a running point or the progress
  /// callback.
  Handle submit(SuiteEntry entry, std::size_t global_index);

  /// Block until every submitted point has finished (running executor
  /// work while blocked); rethrows the first infrastructure error any
  /// point task raised (scenario *failures* are outcomes, not exceptions).
  void wait_all();

  RowsStats rows_stats() const;

  /// The budget of one stage of a point whose own budget is `own`, with
  /// `in_flight` of `jobs` admission slots held: own × (1 + idle slots),
  /// computed without wrapping, capped at max(own, workers) and never
  /// below own. An own budget of 0 (hardware) stays 0.
  static unsigned stage_threads(unsigned own, unsigned jobs,
                                unsigned in_flight, unsigned workers) noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dnnlife::core
