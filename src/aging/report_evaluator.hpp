// Shardable per-cell report evaluation.
//
// make_aging_report / make_lifetime_report used to be monolithic per-cell
// loops: evaluate the model for cell 0..n-1, feeding a builder that owns
// the RunningStats / histogram / per-region accumulators. The expensive
// part — per-cell model evaluation, up to a full Newton lifetime solve per
// cell — is embarrassingly parallel; the cheap part, statistical
// accumulation, is order-sensitive (Welford updates and histogram adds do
// not commute bitwise). ReportEvaluator splits the two:
//
//  * cells are partitioned into contiguous shards (util::shard_range) and
//    each shard's per-cell values are evaluated on the session-wide
//    work-stealing executor into its own buffer — a pure function of the
//    cell index, so scheduling cannot influence any value;
//  * the per-shard buffers are then merged in deterministic shard order by
//    replaying them, cell by cell, through the single accumulation fold.
//
// The fold therefore sees exactly the sequence of (cell, value) pairs the
// single-threaded loop produced, which makes the parallel reports
// bit-identical to the serial ones — for ANY shard count and ANY executor
// size, the invariant the rest of the framework already holds (see
// util/executor.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/executor.hpp"

namespace dnnlife::aging {

/// Runs blocked per-cell evaluations in contiguous shards on the session
/// executor and folds the results in cell order. One evaluator is one
/// concurrency budget; reports pass AgingReportOptions::threads (0 =
/// hardware concurrency). A whole report fan-out is ONE bulk submission (one heap
/// allocation, O(min(shards, workers)) deque pushes), so nothing stops a
/// suite from evaluating many reports concurrently under their budgets.
class ReportEvaluator {
 public:
  explicit ReportEvaluator(unsigned threads)
      : threads_(util::resolve_thread_count(threads)) {}

  unsigned threads() const noexcept { return threads_; }

  /// Cells per block of run_blocks: large enough to amortise a virtual
  /// batch call and give the per-block duty memo real repetition to
  /// exploit (real trackers repeat each distinct counter ratio across many
  /// cells), small enough that the block's duty/value scratch (~100 KiB)
  /// stays within L2.
  static constexpr std::size_t kBlockCells = 4096;

  /// Evaluate every cell in [0, cell_count) in blocks and call
  /// `fold(cell, value)` in ascending cell order. `make_eval()` is invoked
  /// once per shard (so the functor can own scratch buffers without
  /// sharing them across threads) and returns a functor invoked as
  /// `eval(begin, end, out)` that fills `out[0 .. end-begin)` with the
  /// values of cells [begin, end) — the hook the batched model calls
  /// (years_to_reach_batch / degradation_batch) drive, amortising curve
  /// and amplitude evaluation across up to kBlockCells contiguous cells.
  /// Value is the default-constructible per-cell result buffered between
  /// the parallel and the fold phase. Blocks never straddle a shard
  /// boundary, block evaluation must equal per-cell evaluation for every
  /// split (a pure function of the cell index), and the fold replays in
  /// ascending cell order — so reports are bit-identical for any thread
  /// count.
  template <class Value, class MakeEval, class Fold>
  void run_blocks(std::size_t cell_count, MakeEval&& make_eval,
                  Fold&& fold) const {
    if (cell_count == 0) return;
    unsigned shards = threads_;
    if (static_cast<std::size_t>(shards) > cell_count)
      shards = static_cast<unsigned>(cell_count);
    if (shards <= 1) {
      // Serial: no shard buffers, evaluate and fold block by block. The
      // fold sequence is identical to the sharded path below.
      auto eval = make_eval();
      std::vector<Value> block(std::min(cell_count, kBlockCells));
      for (std::size_t begin = 0; begin < cell_count; begin += kBlockCells) {
        const std::size_t end = std::min(cell_count, begin + kBlockCells);
        eval(begin, end, block.data());
        for (std::size_t i = 0; i < end - begin; ++i)
          fold(begin + i, std::move(block[i]));
      }
      return;
    }
    std::vector<std::vector<Value>> buffers(shards);
    {
      util::TaskGroup group;
      group.submit_bulk(
          cell_count, shards,
          [&](unsigned shard, std::uint64_t begin64, std::uint64_t end64) {
            auto eval = make_eval();
            const auto begin = static_cast<std::size_t>(begin64);
            const auto end = static_cast<std::size_t>(end64);
            std::vector<Value>& buffer = buffers[shard];
            buffer.resize(end - begin);
            for (std::size_t b = begin; b < end; b += kBlockCells) {
              const std::size_t e = std::min(end, b + kBlockCells);
              eval(b, e, buffer.data() + (b - begin));
            }
          });
      group.wait();
    }
    std::size_t cell = 0;
    for (std::vector<Value>& buffer : buffers)
      for (Value& value : buffer) fold(cell++, std::move(value));
  }

 private:
  unsigned threads_;
};

}  // namespace dnnlife::aging
