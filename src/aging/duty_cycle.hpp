// Per-cell duty-cycle accounting.
//
// The duty-cycle of a 6T-SRAM cell is the fraction of device lifetime it
// spends storing '1' (paper Sec. I). The simulator accumulates, per cell,
// "ones time" and "total time" in units of block-residency slots; NBTI
// aging depends only on this long-term average (paper cites [14]).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "aging/environment.hpp"
#include "util/binio.hpp"
#include "util/bitops.hpp"
#include "util/check.hpp"

namespace dnnlife::aging {

/// A named contiguous cell range [cell_begin, cell_end) — the aging-layer
/// projection of a sim::MemoryRegion (rows are contiguous, so a row region
/// is a contiguous cell range). Trackers carry these tags so reports can
/// break aging out per region.
struct CellRegion {
  std::string name;
  std::uint64_t cell_begin = 0;
  std::uint64_t cell_end = 0;  ///< exclusive

  friend bool operator==(const CellRegion& a, const CellRegion& b) {
    return a.name == b.name && a.cell_begin == b.cell_begin &&
           a.cell_end == b.cell_end;
  }
};

class DutyCycleTracker {
 public:
  explicit DutyCycleTracker(std::size_t cell_count);

  std::size_t cell_count() const noexcept { return ones_time_.size(); }

  /// Accumulate `amount` slots of storing '1' for `cell`.
  void add_ones_time(std::size_t cell, std::uint32_t amount) {
    ones_time_[cell] += amount;
  }

  /// Accumulate `amount` slots of holding *some* value for `cell`.
  void add_total_time(std::size_t cell, std::uint32_t amount) {
    total_time_[cell] += amount;
  }

  /// Bulk word-level accumulation of one stored row: for each of the
  /// `row_bits` payload bits (little-endian across `words`), a set bit adds
  /// `hi` slots of ones-time, a clear bit adds `lo`, and every covered cell
  /// adds `slot_total` slots of total time. `cell_base` is the flat index
  /// of the row's bit 0 (cells cell_base .. cell_base+row_bits-1 must be
  /// in range). The per-bit blend lo + bit*(hi - lo) is branch-free and
  /// popcount-free (exact in mod-2^32 arithmetic even when hi < lo), and
  /// all-zero / all-one payload words take whole-word uniform-add fast
  /// paths — this is the hot loop of both simulators. The adds run on the
  /// vectorised kernels of util/bitops.hpp (AVX2 / NEON when the build
  /// enables them) and are bit-identical to accumulate_row_scalar.
  void accumulate_row(std::span<const std::uint64_t> words,
                      std::uint32_t row_bits, std::size_t cell_base,
                      std::uint32_t hi, std::uint32_t lo,
                      std::uint32_t slot_total) {
    accumulate_row_impl<false>(words, row_bits, cell_base, hi, lo, slot_total);
  }

  /// The forced-scalar reference path: same word/tail-mask structure, but
  /// every add goes through the scalar kernels regardless of the build's
  /// dispatch selection. This is what accumulate_row compiles to under
  /// DNNLIFE_FORCE_SCALAR, and what the SIMD-vs-scalar bit-identity tests
  /// compare the dispatch path against.
  void accumulate_row_scalar(std::span<const std::uint64_t> words,
                             std::uint32_t row_bits, std::size_t cell_base,
                             std::uint32_t hi, std::uint32_t lo,
                             std::uint32_t slot_total) {
    accumulate_row_impl<true>(words, row_bits, cell_base, hi, lo, slot_total);
  }

  /// Raw accumulators (the fast simulator writes these in bulk).
  std::vector<std::uint32_t>& ones_time() noexcept { return ones_time_; }
  std::vector<std::uint32_t>& total_time() noexcept { return total_time_; }
  const std::vector<std::uint32_t>& ones_time() const noexcept { return ones_time_; }
  const std::vector<std::uint32_t>& total_time() const noexcept { return total_time_; }

  /// True if the cell was never covered by any write (unused memory).
  bool is_unused(std::size_t cell) const { return total_time_[cell] == 0; }

  /// Duty-cycle of `cell` in [0, 1]. Precondition: !is_unused(cell).
  double duty(std::size_t cell) const {
    DNNLIFE_EXPECTS(total_time_[cell] > 0, "duty of unused cell");
    return static_cast<double>(ones_time_[cell]) /
           static_cast<double>(total_time_[cell]);
  }

  std::size_t unused_cell_count() const;

  /// Tag the tracker with a region partition of its cells (sorted,
  /// non-overlapping, covering [0, cell_count) exactly, uniquely named).
  /// Pass an empty vector to clear the tags.
  void set_regions(std::vector<CellRegion> regions);
  const std::vector<CellRegion>& regions() const noexcept { return regions_; }

  /// Accumulate another tracker over the same memory (multi-phase
  /// workloads: the lifetime duty-cycle is the time-weighted union of the
  /// phases' accumulators). Region tags must agree when both trackers have
  /// them; an untagged tracker adopts the other side's tags.
  void merge(const DutyCycleTracker& other);

  /// Append a canonical, platform-independent binary serialization of the
  /// tracker — cell count, region tags, both accumulator arrays, all
  /// explicit little-endian — to `out`. Bit-exact round trip through
  /// load(); the disk simulation store (core/sim_store.hpp) persists
  /// committed trackers through this pair.
  void save(std::string& out) const;

  /// The number of bytes save() appends.
  std::size_t saved_bytes() const noexcept;

  /// Parse one tracker back from `reader`'s cursor (the exact inverse of
  /// save; the cursor advances past the tracker). Throws
  /// std::invalid_argument on truncated input or an invalid region
  /// partition — the tags are re-validated through set_regions, so a
  /// loaded tracker upholds the same invariants as a built one.
  static DutyCycleTracker load(util::ByteReader& reader);

 private:
  /// Shared body of the dispatch and forced-scalar rows. All three payload
  /// classes (all-zero word, all-ones word, mixed) are expressed through
  /// the two bitops kernels — the uniform fast paths are just the blend
  /// with a constant bit (see add_blend_u32_scalar for the single
  /// definition of the blend semantics) — so the scalar reference and the
  /// vector kernel cannot drift apart.
  template <bool kForceScalar>
  void accumulate_row_impl(std::span<const std::uint64_t> words,
                           std::uint32_t row_bits, std::size_t cell_base,
                           std::uint32_t hi, std::uint32_t lo,
                           std::uint32_t slot_total) {
    DNNLIFE_EXPECTS(words.size() >= util::ceil_div(row_bits, 64),
                    "row word count");
    DNNLIFE_EXPECTS(cell_base + row_bits <= ones_time_.size(),
                    "row cells out of range");
    const auto add_uniform = [](std::uint32_t* dst, std::uint32_t count,
                                std::uint32_t amount) {
      if constexpr (kForceScalar)
        util::add_uniform_u32_scalar(dst, count, amount);
      else
        util::add_uniform_u32(dst, count, amount);
    };
    const auto add_blend = [](std::uint32_t* dst, std::uint64_t word,
                              std::uint32_t count, std::uint32_t blend_lo,
                              std::uint32_t blend_delta) {
      if constexpr (kForceScalar)
        util::add_blend_u32_scalar(dst, word, count, blend_lo, blend_delta);
      else
        util::add_blend_u32(dst, word, count, blend_lo, blend_delta);
    };
    std::uint32_t* const ones = ones_time_.data() + cell_base;
    std::uint32_t* const total = total_time_.data() + cell_base;
    const std::uint32_t delta = hi - lo;  // wraps when hi < lo; blend is exact
    std::size_t bit0 = 0;
    for (std::size_t w = 0; bit0 < row_bits; ++w, bit0 += 64) {
      const std::uint32_t bits_here =
          row_bits - bit0 < 64 ? static_cast<std::uint32_t>(row_bits - bit0)
                               : 64u;
      const std::uint64_t word = words[w];
      const std::uint64_t mask = util::low_mask(bits_here);
      if ((word & mask) == 0) {
        if (lo != 0) add_uniform(ones + bit0, bits_here, lo);
      } else if ((word & mask) == mask) {
        add_uniform(ones + bit0, bits_here, hi);
      } else {
        add_blend(ones + bit0, word, bits_here, lo, delta);
      }
      add_uniform(total + bit0, bits_here, slot_total);
    }
  }

  std::vector<std::uint32_t> ones_time_;
  std::vector<std::uint32_t> total_time_;
  std::vector<CellRegion> regions_;
};

/// One environment segment of a phased workload: the duty-cycle
/// accumulator of every phase that ran under `environment` (consecutive
/// equal-environment phases merge — duty time-averages within one
/// environment; see core::simulate_workload_phased).
struct EnvironmentSegment {
  DutyCycleTracker tracker;
  EnvironmentSpec environment;
};

/// A non-owning segment: shared tracker state paired with an evaluation
/// environment. This is the state-share surface of the simulation cache
/// (core/sim_cache.hpp) — one immutable cached tracker can be evaluated
/// under many environment timelines without copying. Reports take views
/// only: owned segments borrow through segment_views(), and a lone
/// tracker is the one-element view {&tracker, env}.
struct EnvironmentSegmentView {
  const DutyCycleTracker* tracker = nullptr;  ///< non-owning, non-null
  EnvironmentSpec environment;
};

/// Borrow every owned segment as a view (same order; the segments must
/// outlive the views).
std::vector<EnvironmentSegmentView> segment_views(
    std::span<const EnvironmentSegment> segments);

/// Reject segment lists whose trackers disagree on cell count or region
/// tags (they must all come from the same region-policy table).
void check_segments(std::span<const EnvironmentSegmentView> segments);

/// A cell's merged residency across every segment (the legacy
/// single-operating-point view; accumulated in the same wrapping uint32
/// arithmetic DutyCycleTracker::merge uses).
struct CellResidency {
  std::uint32_t ones = 0;
  std::uint32_t total = 0;
};

/// Gather `cell`'s stress history across `segments` into `out` (cleared
/// first; segments where the cell is unused contribute nothing): each
/// entry's duty is the segment tracker's duty and its weight the cell's
/// residency slots there. Returns the merged residency.
CellResidency gather_cell_segments(
    std::span<const EnvironmentSegmentView> segments, std::size_t cell,
    std::vector<StressSegment>& out);

}  // namespace dnnlife::aging
