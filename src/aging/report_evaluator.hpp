// One history table per evaluated state, and exactly memoised report
// evaluation over it.
//
// make_aging_report / make_lifetime_report evaluate the model for every
// cell of a memory, feeding accumulators that own the RunningStats /
// histogram / per-region breakdown. The expensive part — per-cell model
// evaluation, up to a full Newton lifetime solve per cell — is massively
// repetitive: a committed state holds few distinct cell histories (tens
// to tens of thousands across up to millions of cells). The cheap part,
// statistical accumulation, is order-sensitive (Welford updates do not
// commute bitwise). The pipeline splits the two:
//
//  * HistoryTable keys every cell of the state on its exact residency
//    counters in every segment, `(ones_time, total_time)` per segment
//    tracker, and numbers the distinct histories in whole-state
//    first-seen cell order, with a per-cell index of the narrowest width
//    that fits (uint8_t, then uint16_t, then uint32_t). Everything a
//    report computes for a cell (its gathered StressSegment history,
//    merged duty, unused flag) is a pure function of those integers and
//    the fixed per-segment environments, so cells with equal keys have
//    bit-identical values. One table serves both reports of a point.
//  * ReportEvaluator evaluates each distinct history once: at budget 1 in
//    one call, above it in fixed kChunk-id chunks claimed as items on the
//    session-wide executor. Each value is a pure function
//    of its history, so the values are bit-identical for any budget. Both
//    reports take one path for any segment count: gather the history's
//    StressSegment timeline and call the model's timeline entry points,
//    which short-circuit a single segment to the plain formula.
//  * the reports then fold in ascending cell order, replaying
//    values[index[cell]] (HistoryTable::for_each) through unit-weight
//    Welford adds; order-free integer tallies (histogram bins, optimal
//    and unused counts) are counted per distinct id or per region.
//
// The fold therefore sees exactly the sequence of (cell, value) pairs the
// single-threaded per-cell loop produced, which makes the reports
// bit-identical to it for ANY budget and ANY executor size, the invariant
// the rest of the framework already holds (see util/executor.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "aging/duty_cycle.hpp"
#include "util/executor.hpp"

namespace dnnlife::aging {

/// The distinct cell histories of one evaluated state, plus a per-cell
/// index into them. Immutable once built; borrows nothing, but is only
/// meaningful together with the segments it was built from.
class HistoryTable {
 public:
  /// Key every cell of `segments` (one pass, serial). Validates the
  /// segments like the reports do (check_segments).
  explicit HistoryTable(std::span<const EnvironmentSegmentView> segments);

  std::size_t cell_count() const noexcept { return cells_; }
  /// Number of distinct histories.
  std::size_t size() const noexcept { return firsts_.size(); }
  /// The first cell of each distinct history, indexed by id; ids are
  /// numbered in ascending order of these cells.
  std::span<const std::size_t> firsts() const noexcept { return firsts_; }
  /// Bytes per cell of the index: 1, 2 or 4.
  std::size_t index_bytes() const noexcept {
    return std::visit([](const auto& index) { return sizeof index[0]; },
                      index_);
  }
  /// The id of `cell`'s history.
  std::uint32_t id(std::size_t cell) const {
    DNNLIFE_EXPECTS(cell < cells_, "cell out of range");
    return std::visit(
        [cell](const auto& index) -> std::uint32_t { return index[cell]; },
        index_);
  }

  /// visit(cell, id) for every cell of [begin, end), in ascending order.
  template <class Visit>
  void for_each(std::size_t begin, std::size_t end, Visit&& visit) const {
    DNNLIFE_EXPECTS(begin <= end && end <= cells_, "cell range out of range");
    std::visit(
        [&](const auto& index) {
          for (std::size_t cell = begin; cell < end; ++cell)
            visit(cell, static_cast<std::uint32_t>(index[cell]));
        },
        index_);
  }

  /// Reject a table built from a different shape of state.
  void check_matches(std::span<const EnvironmentSegmentView> segments) const {
    DNNLIFE_EXPECTS(segments.size() == segments_ &&
                        segments.front().tracker->cell_count() == cells_,
                    "history table was built for a different state");
  }

 private:
  std::size_t cells_;
  std::size_t segments_;
  std::vector<std::size_t> firsts_;
  std::variant<std::vector<std::uint8_t>, std::vector<std::uint16_t>,
               std::vector<std::uint32_t>>
      index_;
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

/// fold(begin, end, region) over the region partition `tags` of a
/// `cell_count`-cell memory, in cell order (region = the tag's index);
/// one call over every cell with region == tags.size() when untagged.
template <class Fold>
void for_each_region(std::size_t cell_count,
                     const std::vector<CellRegion>& tags, Fold&& fold) {
  if (tags.empty()) {
    fold(std::size_t{0}, cell_count, tags.size());
    return;
  }
  for (std::size_t r = 0; r < tags.size(); ++r)
    fold(static_cast<std::size_t>(tags[r].cell_begin),
         static_cast<std::size_t>(tags[r].cell_end), r);
}

}  // namespace dnnlife::aging
