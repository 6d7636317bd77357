// Streaming and batch summary statistics.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace dnnlife::util {

/// Welford-style streaming accumulator for mean/variance/min/max.
class RunningStats {
 public:
  RunningStats() = default;
  /// The accumulator a stream of `count` values ends in: `m2` is the sum
  /// of squared deviations from `mean` (see ExactMoments::stats).
  RunningStats(std::uint64_t count, double mean, double m2, double min,
               double max) noexcept
      : count_(count), mean_(mean), m2_(m2), min_(min), max_(max) {}

  /// Add `value` `weight` times (weighted Welford update; weight 0 is a
  /// no-op).
  void add(double value, std::uint64_t weight) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }
  /// Population variance (division by N).
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

  /// Merge another accumulator (parallel-friendly).
  void merge(const RunningStats& other) noexcept;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact sum of doubles: a small superaccumulator (R. M. Neal, "Fast exact
/// summation using small and large superaccumulators", 2015). Every finite
/// double is an integer multiple of 2^-1074, so the sum is held as a
/// fixed-point integer of 32-bit digits, each in a signed 64-bit chunk
/// whose upper half absorbs carries. add() places a term (a count times a
/// double) across four chunks without rounding; round() propagates the
/// carries and rounds once, to nearest-even. The result is therefore
/// independent of the order of adds and merges. Non-finite terms bypass
/// the chunks and are summed in plain arithmetic: an infinity makes the
/// sum infinite, opposite infinities or a NaN make it NaN.
class ExactSum {
 public:
  /// Add `count` x `value` exactly: the value's 53-bit significand times
  /// the count is one integer, placed across four chunks.
  void add(double value, std::uint64_t count = 1) noexcept {
    if (count >> 32 != 0) {
      add_wide_count(value, count);
      return;
    }
    const auto bits = std::bit_cast<std::uint64_t>(value);
    unsigned exponent = static_cast<unsigned>(bits >> 52) & 0x7ffu;
    if (exponent == 0x7ffu) {
      if (count != 0) special_ += value;
      return;
    }
    std::uint64_t significand = bits & ((std::uint64_t{1} << 52) - 1);
    // A normal value has the hidden bit; a subnormal (or zero) one has the
    // scale of exponent 1. Either way |value| = significand units of
    // 2^(exponent - 1 - 1074).
    if (exponent != 0) significand |= std::uint64_t{1} << 52;
    exponent += exponent == 0;
    const unsigned position = exponent - 1;
    // Below 2^(53 + 32 + 31): four 32-bit digits from the value's chunk up.
    const unsigned __int128 digits =
        (static_cast<unsigned __int128>(significand) * count)
        << (position % kDigitBits);
    // Branch-free sign: the rounding errors of squares and products are
    // positive and negative at random.
    const std::int64_t sign = 1 - 2 * static_cast<std::int64_t>(bits >> 63);
    std::int64_t* chunk = chunks_.data() + position / kDigitBits;
    for (int d = 0; d < 4; ++d)
      chunk[d] += sign * static_cast<std::int64_t>(static_cast<std::uint32_t>(
                             digits >> (kDigitBits * d)));
    if (++terms_ == kTermsBetweenCarries) carry();
  }
  /// Add a * b exactly: TwoProduct splits it into p = a * b and
  /// fma(a, b, -p). Exact unless the product overflows or its rounding
  /// error underflows.
  void add_product(double a, double b) noexcept {
    const double product = a * b;
    add(product);
    if (std::isfinite(product)) add(std::fma(a, b, -product));
  }
  void add(const ExactSum& other) noexcept;

  /// The exact sum rounded once to nearest-even (+0 for an empty sum).
  double round() const noexcept;

  /// visit(part) for finite doubles whose exact sum is this sum (at most
  /// one per chunk), so a sum can be scaled exactly with add_product.
  template <class Visit>
  void for_each_part(Visit&& visit) const {
    ExactSum carried = *this;
    carried.carry();
    for (int chunk = 0; chunk < kChunks; ++chunk)
      if (carried.chunks_[chunk] != 0)
        visit(std::ldexp(static_cast<double>(carried.chunks_[chunk]),
                         kDigitBits * chunk - kUnitExponent));
  }

 private:
  /// Digit bits per chunk; chunk c weighs 2^(32 c - 1074).
  static constexpr int kDigitBits = 32;
  static constexpr int kUnitExponent = 1074;
  /// 2046 bit positions of finite significands, and four chunks from the
  /// highest for a significand times a count below 2^32 (85 bits, shifted
  /// by up to 31). A sum reaching the top chunk overflows a double.
  static constexpr int kChunks = 67;
  /// An add moves a chunk by less than 2^32, so chunks stay within int64
  /// for 2^30 adds; carry() every 2^29 keeps a merge of two sums within
  /// that.
  static constexpr std::uint32_t kTermsBetweenCarries = 1u << 29;

  /// Propagate the carries: every chunk below the top in [0, 2^32).
  void carry() noexcept;
  /// add() for a count of 2^32 or more, as two counts below 2^32.
  void add_wide_count(double value, std::uint64_t count) noexcept;

  std::array<std::int64_t, kChunks> chunks_{};
  std::uint32_t terms_ = 0;  ///< adds since the last carry()
  double special_ = 0.0;     ///< sum of the non-finite terms
};

/// Count-weighted moments of a multiset given as (value, count) pairs,
/// from exact sums: any order of adds and merges gives the same bits.
/// The mean is the exactly rounded sum of count x value divided by the
/// total count (within 1 ulp of exact). The variance is the exactly
/// rounded sum of count x (value - mean)^2 against that rounded mean,
/// divided by the total count. `+inf` values (a cell that never fails)
/// stay out of the sums and are counted apart; any of them makes the mean
/// and the variance `+inf`. Values must not be NaN or `-inf`.
class ExactMoments {
 public:
  void add(double value, std::uint64_t count) noexcept;
  void add(const ExactMoments& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  /// Cells added with a `+inf` value.
  std::uint64_t infinite_count() const noexcept { return infinite_; }
  /// The moments as a RunningStats (all zero when empty).
  RunningStats stats() const noexcept;

 private:
  std::uint64_t count_ = 0;
  std::uint64_t infinite_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  ExactSum sum_;      ///< of count x value
  ExactSum squares_;  ///< of count x value^2
};

/// Quantile of a sample (linear interpolation between order statistics).
/// `q` in [0, 1]. The input span is copied; for large inputs prefer
/// sorting once and calling `sorted_quantile`.
double quantile(std::span<const double> values, double q);

/// Quantile of an already-sorted sample.
double sorted_quantile(std::span<const double> sorted, double q);

/// Pearson correlation of two equally-sized samples.
double pearson_correlation(std::span<const double> x, std::span<const double> y);

}  // namespace dnnlife::util
