// Block-scheduled, exactly memoised per-cell report evaluation.
//
// make_aging_report / make_lifetime_report evaluate the model for every
// cell of a memory, feeding a builder that owns the RunningStats /
// histogram / per-region accumulators. The expensive part — per-cell
// model evaluation, up to a full Newton lifetime solve per cell — is
// embarrassingly parallel and massively repetitive; the cheap part,
// statistical accumulation, is order-sensitive (Welford updates and
// histogram adds do not commute bitwise). ReportEvaluator splits the two:
//
//  * cells are cut into fixed kBlockCells blocks — a pure function of the
//    cell count, never of the budget or the executor size — and the
//    blocks are claimed as items on the session-wide work-stealing
//    executor, so a memory whose expensive cells cluster in one region
//    still spreads over every worker;
//  * within a block, each *distinct* cell stress history is evaluated
//    once (BlockHistories: the exact residency counters of every segment
//    are the memo key, and every report value is a pure function of them,
//    so a memo hit is the bit pattern a fresh solve would produce);
//  * each block buffers its distinct values plus a uint16_t index per
//    cell, and the blocks are then folded in ascending cell order by
//    replaying values[index[cell]] through the single accumulation fold.
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
#include <vector>

#include "aging/duty_cycle.hpp"
#include "aging/duty_memo.hpp"
#include "util/executor.hpp"

namespace dnnlife::aging {

/// One evaluated block: its distinct values and, per cell of the block,
/// the position of the cell's value among them.
template <class Value>
struct BlockValues {
  std::vector<Value> values;
  std::vector<std::uint16_t> index;
};

/// Runs blocked per-cell evaluations on the session executor and folds the
/// results in cell order. One evaluator is one concurrency budget; reports
/// pass AgingReportOptions::threads (0 = hardware concurrency). A whole
/// report fan-out is ONE item submission (one heap allocation,
/// O(min(blocks, budget)) deque pushes), so nothing stops a suite from
/// evaluating many reports concurrently under their budgets.
class ReportEvaluator {
 public:
  explicit ReportEvaluator(unsigned threads)
      : threads_(util::resolve_thread_count(threads)) {}

  unsigned threads() const noexcept { return threads_; }

  /// Cells per block: the unit of scheduling and of memoisation. Large
  /// enough to amortise a virtual batch call and give the per-block memo
  /// real repetition to exploit (real trackers repeat each distinct
  /// history across many cells), small enough that the block's key table
  /// and scratch stay within L2 and that a per-cell index fits uint16_t.
  static constexpr std::size_t kBlockCells = 4096;
  static_assert(kBlockCells <= 65536, "block index must fit uint16_t");

  /// Evaluate every cell in [0, cell_count) block by block and call
  /// `fold(cell, value)` in ascending cell order. `make_eval()` is invoked
  /// once per claimed block (serially: once), so the functor can own
  /// scratch buffers without sharing them across threads, and returns a
  /// functor invoked as `eval(begin, end, out)` for the block of cells
  /// [begin, end): `out.values` arrives empty and `out.index` sized
  /// end - begin; the functor appends the block's values and sets
  /// out.index[i] to the position of cell begin + i's value. Value is the
  /// per-cell result the fold consumes. Block evaluation must equal
  /// per-cell evaluation for every cell (a pure function of the cell's
  /// history), blocks are fixed, and the fold replays in ascending cell
  /// order — so reports are bit-identical for any budget. At budget 1 (or
  /// a single block) each block is folded as soon as it is evaluated, with
  /// one reused block buffer.
  template <class Value, class MakeEval, class Fold>
  void run_blocks(std::size_t cell_count, MakeEval&& make_eval,
                  Fold&& fold) const {
    if (cell_count == 0) return;
    const std::size_t blocks = (cell_count + kBlockCells - 1) / kBlockCells;
    const auto evaluate = [cell_count](auto& eval, std::size_t block,
                                       BlockValues<Value>& out) {
      const std::size_t begin = block * kBlockCells;
      const std::size_t end = std::min(cell_count, begin + kBlockCells);
      out.values.clear();
      out.index.resize(end - begin);
      eval(begin, end, out);
      DNNLIFE_EXPECTS(out.values.size() <= end - begin,
                      "a block has at most one value per cell");
    };
    const auto replay = [&fold](std::size_t block,
                                const BlockValues<Value>& out) {
      const std::size_t begin = block * kBlockCells;
      for (std::size_t i = 0; i < out.index.size(); ++i)
        fold(begin + i, out.values[out.index[i]]);
    };
    if (threads_ <= 1 || blocks == 1) {
      auto eval = make_eval();
      BlockValues<Value> out;
      for (std::size_t block = 0; block < blocks; ++block) {
        evaluate(eval, block, out);
        replay(block, out);
      }
      return;
    }
    std::vector<BlockValues<Value>> buffers(blocks);
    {
      util::TaskGroup group;
      group.submit_items(blocks, threads_, [&](std::size_t block) {
        auto eval = make_eval();
        evaluate(eval, block, buffers[block]);
      });
      group.wait();
    }
    for (std::size_t block = 0; block < blocks; ++block)
      replay(block, buffers[block]);
  }

 private:
  unsigned threads_;
};

/// The exact-history memo of one block: groups the block's cells by their
/// residency counters in every segment, `(ones_time, total_time)` per
/// segment tracker. Everything a report computes for a cell (its gathered
/// StressSegment history, merged duty, unused flag) is a pure function of
/// those integers and the fixed per-segment environments, so cells with
/// equal keys have bit-identical values.
class BlockHistories {
 public:
  /// Key the cells [begin, end) against `segments`: index[i] becomes the
  /// id of cell begin + i's history, ids numbered in first-seen order.
  /// Returns the first cell of each distinct history, indexed by id.
  std::span<const std::size_t> scan(
      std::span<const EnvironmentSegmentView> segments, std::size_t begin,
      std::size_t end, std::span<std::uint16_t> index) {
    const std::size_t words = segments.size();
    table_.reset(end - begin, words);
    columns_.clear();
    for (const EnvironmentSegmentView& segment : segments)
      columns_.push_back({segment.tracker->ones_time().data(),
                          segment.tracker->total_time().data()});
    key_.resize(words);
    firsts_.clear();
    for (std::size_t cell = begin; cell < end; ++cell) {
      for (std::size_t s = 0; s < words; ++s)
        key_[s] = std::uint64_t{columns_[s].ones[cell]} << 32 |
                  columns_[s].total[cell];
      const detail::ExactKeyTable::Lookup lookup = table_.insert(key_.data());
      if (lookup.inserted) firsts_.push_back(cell);
      index[cell - begin] = static_cast<std::uint16_t>(lookup.id);
    }
    return firsts_;
  }

 private:
  struct Columns {
    const std::uint32_t* ones;
    const std::uint32_t* total;
  };

  detail::ExactKeyTable table_;
  std::vector<Columns> columns_;
  std::vector<std::uint64_t> key_;
  std::vector<std::size_t> firsts_;
};

}  // namespace dnnlife::aging
