// One history table per evaluated state, and exactly memoised report
// evaluation over it.
//
// make_aging_report / make_lifetime_report evaluate the model for every
// cell of a memory. The expensive part, per-cell model evaluation (up to a
// full Newton lifetime solve per cell), is massively repetitive: a
// committed state holds few distinct cell histories (tens to tens of
// thousands across up to millions of cells). So is the statistics part:
// the reports only need the distribution of values over the cells, which
// is a short list of distinct values with cell counts. The pipeline works
// on that list:
//
//  * HistoryTable keys every cell of the state on its exact residency
//    counters in every segment, `(ones_time, total_time)` per segment
//    tracker, numbers the distinct histories in whole-state first-seen
//    cell order, and tallies one cell count per (region, history) in the
//    same single pass, region by region. It keeps no per-cell index.
//    Everything a report computes for a cell (its gathered StressSegment
//    history, merged duty, unused flag) is a pure function of those
//    integers and the fixed per-segment environments, so cells with equal
//    keys have bit-identical values. One table serves both reports of a
//    point.
//  * ReportEvaluator evaluates each distinct history once: at budget 1 in
//    one call, above it in fixed kChunk-id chunks claimed as items on the
//    session-wide executor. Each value is a pure function of its history,
//    so the values are bit-identical for any budget. Both reports take one
//    path for any segment count: gather the history's StressSegment
//    timeline and call the model's timeline entry points, which
//    short-circuit a single segment to the plain formula.
//  * the reports then fold over each region's (history, cell count)
//    tallies and never touch per-cell data. Histogram bins, optimal and
//    unused counts are integer counts; min, max and the lifetimes (a
//    minimum) are order-free; mean and variance come from exact sums
//    (util::ExactMoments), rounded once, and the whole memory's sums are
//    the exact sums of its regions'.
//
// Every report field is therefore independent of cell order, thread
// count, executor size, shard split and history numbering.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "aging/duty_cycle.hpp"
#include "util/executor.hpp"

namespace dnnlife::aging {

/// The distinct cell histories of one evaluated state, and how many cells
/// of each region hold each of them. Immutable once built; borrows
/// nothing, but is only meaningful together with the segments it was
/// built from.
class HistoryTable {
 public:
  /// The cells of one region that hold history `id`.
  struct Tally {
    std::uint32_t id;
    std::uint64_t cells;
  };

  /// Key every cell of `segments` (one pass, serial, region by region)
  /// and tally it. Validates the segments like the reports do
  /// (check_segments).
  explicit HistoryTable(std::span<const EnvironmentSegmentView> segments);

  std::size_t cell_count() const noexcept { return cells_; }
  /// Number of distinct histories.
  std::size_t size() const noexcept { return firsts_.size(); }
  /// The first cell of each distinct history, indexed by id; ids are
  /// numbered in ascending order of these cells.
  std::span<const std::size_t> firsts() const noexcept { return firsts_; }
  /// The regions of the tracker tags, in cell order; one region of every
  /// cell when untagged.
  std::size_t region_count() const noexcept { return offsets_.size() - 1; }
  /// Region `region`'s tallies: each distinct history of the region once,
  /// with its cell count (the counts sum to the region's cell count).
  std::span<const Tally> tallies(std::size_t region) const {
    DNNLIFE_EXPECTS(region < region_count(), "region out of range");
    return std::span(tallies_).subspan(
        offsets_[region], offsets_[region + 1] - offsets_[region]);
  }

  /// Reject a table built from a different shape of state or region
  /// partition.
  void check_matches(std::span<const EnvironmentSegmentView> segments) const;

 private:
  std::size_t cells_;
  std::size_t segments_;
  /// The cell_end of each tagged region (empty when untagged).
  std::vector<std::size_t> region_ends_;
  std::vector<std::size_t> firsts_;
  std::vector<Tally> tallies_;
  /// Region r's tallies are [offsets_[r], offsets_[r + 1]).
  std::vector<std::size_t> offsets_;
};

/// Runs the distinct-history evaluation of one report on the session
/// executor. One evaluator is one concurrency budget; reports pass
/// AgingReportOptions::threads (0 = hardware concurrency). A whole
/// fan-out is ONE item submission, so nothing stops a suite from
/// evaluating many reports concurrently under their budgets.
class ReportEvaluator {
 public:
  explicit ReportEvaluator(unsigned threads)
      : threads_(util::resolve_thread_count(threads)) {}

  unsigned threads() const noexcept { return threads_; }

  /// Distinct histories per item above budget 1: enough to amortise an
  /// executor claim.
  static constexpr std::size_t kChunk = 512;

  /// values[id] for every id in [0, count). `make_eval()` is invoked once
  /// per claimed chunk (budget 1: once), so the functor can own scratch
  /// buffers without sharing them across threads, and returns a functor
  /// invoked as `eval(begin, end, out)` that sets out[i] to the value of
  /// id begin + i. At budget 1 (or one chunk) that is a single call over
  /// [0, count); above it, fixed kChunk-id chunks run as items. Each value
  /// must be a pure function of its id's history, so the result is
  /// bit-identical for any budget.
  template <class Value, class MakeEval>
  std::vector<Value> evaluate(std::size_t count, MakeEval&& make_eval) const {
    std::vector<Value> values(count);
    const std::size_t chunks = (count + kChunk - 1) / kChunk;
    if (threads_ <= 1 || chunks <= 1) {
      if (count != 0) make_eval()(std::size_t{0}, count, std::span(values));
      return values;
    }
    util::TaskGroup group;
    group.submit_items(chunks, threads_, [&](std::size_t chunk) {
      const std::size_t begin = chunk * kChunk;
      const std::size_t end = std::min(count, begin + kChunk);
      make_eval()(begin, end, std::span(values).subspan(begin, end - begin));
    });
    group.wait();
    return values;
  }

 private:
  unsigned threads_;
};

}  // namespace dnnlife::aging
