#include "util/statistics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.hpp"

namespace dnnlife::util {

void RunningStats::add(double value, std::uint64_t weight) noexcept {
  if (weight == 0) return;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  // Weighted Welford update (West 1979).
  const double w = static_cast<double>(weight);
  const double total = static_cast<double>(count_) + w;
  const double delta = value - mean_;
  mean_ += delta * (w / total);
  m2_ += delta * (value - mean_) * w;
  count_ += weight;
}

double RunningStats::variance() const noexcept {
  return count_ == 0 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * (n2 / (n1 + n2));
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

void ExactSum::add_wide_count(double value, std::uint64_t count) noexcept {
  // value x 2^32 is exact unless it overflows, and then so would the sum.
  add(value * 0x1p32, count >> 32);
  add(value, count & 0xffffffffu);
}

void ExactSum::add(const ExactSum& other) noexcept {
  for (int chunk = 0; chunk < kChunks; ++chunk)
    chunks_[chunk] += other.chunks_[chunk];
  special_ += other.special_;
  terms_ += other.terms_ + 1;
  if (terms_ >= kTermsBetweenCarries) carry();
}

void ExactSum::carry() noexcept {
  for (int chunk = 0; chunk + 1 < kChunks; ++chunk) {
    const std::int64_t carried = chunks_[chunk] >> kDigitBits;  // floor
    chunks_[chunk] -= carried * (std::int64_t{1} << kDigitBits);
    chunks_[chunk + 1] += carried;
  }
  terms_ = 0;
}

double ExactSum::round() const noexcept {
  if (special_ != 0.0) return special_;  // also a NaN
  ExactSum sum = *this;
  sum.carry();
  // Only the top chunk carries the sign; negate a negative sum and carry
  // again, so every chunk holds a non-negative digit of the magnitude.
  const bool negative = sum.chunks_[kChunks - 1] < 0;
  if (negative) {
    for (std::int64_t& chunk : sum.chunks_) chunk = -chunk;
    sum.carry();
  }
  int top = kChunks - 1;
  while (top >= 0 && sum.chunks_[top] == 0) --top;
  if (top < 0) return 0.0;
  const double infinity = std::numeric_limits<double>::infinity();
  if (top == kChunks - 1) return negative ? -infinity : infinity;
  const auto digit = [&](int chunk) {
    return chunk < 0 ? std::uint64_t{0}
                     : static_cast<std::uint64_t>(sum.chunks_[chunk]);
  };
  // The 64 leading bits of the magnitude, and whether any bit below them
  // is set.
  const int width = std::bit_width(digit(top));
  const std::uint64_t window = digit(top) << (64 - width) |
                               digit(top - 1) << (32 - width) |
                               digit(top - 2) >> width;
  bool sticky = (digit(top - 2) & ((std::uint64_t{1} << width) - 1)) != 0;
  for (int chunk = top - 3; chunk >= 0 && !sticky; --chunk)
    sticky = sum.chunks_[chunk] != 0;
  // Round the window to 53 bits, to nearest-even. A magnitude below
  // 2^-1022 has at most 52 bits, so it is exact here and in ldexp.
  std::uint64_t significand = window >> 11;
  const std::uint64_t rest = window & 0x7ffu;
  if (rest > 0x400u || (rest == 0x400u && (sticky || (significand & 1) != 0)))
    ++significand;
  const double magnitude =
      std::ldexp(static_cast<double>(significand),
                 kDigitBits * top + width - 53 - kUnitExponent);
  return negative ? -magnitude : magnitude;
}

void ExactMoments::add(double value, std::uint64_t count) noexcept {
  if (count == 0) return;
  count_ += count;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  if (value == std::numeric_limits<double>::infinity()) {
    infinite_ += count;
    return;
  }
  // count x value^2 exactly: value^2 splits into square + error.
  const double square = value * value;
  sum_.add(value, count);
  squares_.add(square, count);
  if (std::isfinite(square))
    squares_.add(std::fma(value, value, -square), count);
}

void ExactMoments::add(const ExactMoments& other) noexcept {
  count_ += other.count_;
  infinite_ += other.infinite_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_.add(other.sum_);
  squares_.add(other.squares_);
}

RunningStats ExactMoments::stats() const noexcept {
  if (count_ == 0) return {};
  if (infinite_ != 0) {
    const double infinity = std::numeric_limits<double>::infinity();
    return RunningStats(count_, infinity, infinity, min_, max_);
  }
  const double n = static_cast<double>(count_);
  const double mean = sum_.round() / n;
  // Sum c (v - mean)^2 = Sum c v^2 - 2 mean Sum c v + n mean^2, every
  // term exact, so the deviations are summed exactly too.
  ExactSum deviations = squares_;
  sum_.for_each_part(
      [&](double part) { deviations.add_product(-2.0 * mean, part); });
  const double square = mean * mean;
  deviations.add_product(n, square);
  deviations.add_product(n, std::fma(mean, mean, -square));
  return RunningStats(count_, mean, deviations.round(), min_, max_);
}

double sorted_quantile(std::span<const double> sorted, double q) {
  DNNLIFE_EXPECTS(!sorted.empty(), "quantile of empty sample");
  DNNLIFE_EXPECTS(q >= 0.0 && q <= 1.0, "quantile order out of [0,1]");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double quantile(std::span<const double> values, double q) {
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  return sorted_quantile(copy, q);
}

double pearson_correlation(std::span<const double> x, std::span<const double> y) {
  DNNLIFE_EXPECTS(x.size() == y.size(), "correlation input sizes differ");
  DNNLIFE_EXPECTS(x.size() >= 2, "correlation needs >= 2 points");
  RunningStats sx;
  RunningStats sy;
  for (double v : x) sx.add(v, 1);
  for (double v : y) sy.add(v, 1);
  double cov = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    cov += (x[i] - sx.mean()) * (y[i] - sy.mean());
  cov /= static_cast<double>(x.size());
  const double denom = sx.stddev() * sy.stddev();
  DNNLIFE_EXPECTS(denom > 0.0, "correlation of constant series");
  return cov / denom;
}

}  // namespace dnnlife::util
