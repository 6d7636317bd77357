// Streaming and batch summary statistics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace dnnlife::util {

/// Welford-style streaming accumulator for mean/variance/min/max.
class RunningStats {
 public:
  /// Add `value` `weight` times (weighted Welford update; weight 0 is a
  /// no-op).
  void add(double value, std::uint64_t weight) noexcept;

  /// Add `value` once: the weighted update at weight 1, inline for the
  /// per-cell report folds. `w / total` with w = 1 is `1.0 / total` and
  /// `* w` is exact, so both overloads produce the same bits.
  void add(double value) noexcept {
    if (count_ == 0) {
      min_ = value;
      max_ = value;
    } else {
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    }
    const double delta = value - mean_;
    mean_ += delta * (1.0 / (static_cast<double>(count_) + 1.0));
    m2_ += delta * (value - mean_);
    ++count_;
  }

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

/// Quantile of a sample (linear interpolation between order statistics).
/// `q` in [0, 1]. The input span is copied; for large inputs prefer
/// sorting once and calling `sorted_quantile`.
double quantile(std::span<const double> values, double q);

/// Quantile of an already-sorted sample.
double sorted_quantile(std::span<const double> sorted, double q);

/// Pearson correlation of two equally-sized samples.
double pearson_correlation(std::span<const double> x, std::span<const double> y);

}  // namespace dnnlife::util
