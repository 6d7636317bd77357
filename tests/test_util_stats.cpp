// Unit tests for histogram, statistics, table and CSV utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"

namespace dnnlife::util {
namespace {

TEST(Histogram, BinsCoverRange) {
  Histogram hist(0.0, 10.0, 5);
  EXPECT_EQ(hist.bin_count(), 5u);
  EXPECT_DOUBLE_EQ(hist.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(hist.bin_hi(4), 10.0);
  EXPECT_DOUBLE_EQ(hist.bin_mid(2), 5.0);
}

TEST(Histogram, AddPlacesValues) {
  Histogram hist(0.0, 10.0, 5);
  hist.add(1.0);
  hist.add(3.0);
  hist.add(3.5);
  hist.add(9.9);
  EXPECT_EQ(hist.count_in_bin(0), 1u);
  EXPECT_EQ(hist.count_in_bin(1), 2u);
  EXPECT_EQ(hist.count_in_bin(4), 1u);
  EXPECT_EQ(hist.total(), 4u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram hist(0.0, 1.0, 2);
  hist.add(-5.0);
  hist.add(5.0);
  EXPECT_EQ(hist.count_in_bin(0), 1u);
  EXPECT_EQ(hist.count_in_bin(1), 1u);
}

TEST(Histogram, UpperEdgeGoesToLastBin) {
  Histogram hist(0.0, 1.0, 4);
  hist.add(1.0);
  EXPECT_EQ(hist.count_in_bin(3), 1u);
}

TEST(Histogram, WeightedCounts) {
  Histogram hist(0.0, 1.0, 2);
  hist.add(0.25, 10);
  hist.add(0.75, 30);
  EXPECT_DOUBLE_EQ(hist.fraction_in_bin(0), 0.25);
  EXPECT_DOUBLE_EQ(hist.fraction_in_bin(1), 0.75);
}

TEST(Histogram, MergeRequiresSameGeometry) {
  Histogram a(0.0, 1.0, 2);
  Histogram b(0.0, 1.0, 2);
  Histogram c(0.0, 2.0, 2);
  a.add(0.1);
  b.add(0.9);
  a.merge(b);
  EXPECT_EQ(a.total(), 2u);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, ToStringContainsPercentages) {
  Histogram hist(0.0, 1.0, 2);
  hist.add(0.1);
  hist.add(0.2);
  const std::string text = hist.to_string();
  EXPECT_NE(text.find("100.00%"), std::string::npos);
  EXPECT_NE(text.find("0.00%"), std::string::npos);
}

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.add(v, 1);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_NEAR(stats.variance(), 1.25, 1e-12);
}

TEST(RunningStats, WeightedAddMatchesRepeated) {
  RunningStats weighted;
  weighted.add(2.0, 3);
  weighted.add(5.0, 1);
  RunningStats repeated;
  for (const double v : {2.0, 2.0, 2.0, 5.0}) repeated.add(v, 1);
  EXPECT_NEAR(weighted.mean(), repeated.mean(), 1e-12);
  EXPECT_NEAR(weighted.variance(), repeated.variance(), 1e-12);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double v = 0.1 * i;
    (i % 2 == 0 ? a : b).add(v, 1);
    all.add(v, 1);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  stats.add(3.0, 0);  // weight 0 is a no-op
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 0.0);
}

std::uint64_t bits_of(double value) { return std::bit_cast<std::uint64_t>(value); }

double sum_of(std::initializer_list<double> values) {
  ExactSum sum;
  for (const double value : values) sum.add(value);
  return sum.round();
}

TEST(ExactSum, RoundsTheExactSumOnceToNearestEven) {
  const double two53 = std::ldexp(1.0, 53);
  const double max = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(bits_of(sum_of({})), bits_of(0.0));
  EXPECT_EQ(sum_of({1e100, 1.0, -1e100}), 1.0);
  EXPECT_EQ(sum_of({-1.5, 0.25}), -1.25);
  // 2^53 + 1 is a tie: to even. Anything below the tie breaks it.
  EXPECT_EQ(sum_of({two53, 1.0}), two53);
  EXPECT_EQ(sum_of({two53, 1.0, std::ldexp(1.0, -60)}), two53 + 2.0);
  EXPECT_EQ(sum_of({two53, 3.0}), two53 + 4.0);
  EXPECT_EQ(sum_of({-two53, -1.0, -std::ldexp(1.0, -60)}), -two53 - 2.0);
  // Ten plain 0.1s sum to 1.0000000000000000555..., which rounds to 1.
  EXPECT_EQ(sum_of({0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}), 1.0);
  // No intermediate rounding, overflow or flush to zero.
  EXPECT_EQ(sum_of({max, max, -max}), max);
  EXPECT_EQ(sum_of({max, max}), inf);
  EXPECT_EQ(sum_of({tiny, 1.0, -1.0}), tiny);
  EXPECT_EQ(sum_of({std::ldexp(1.0, -1022), -tiny}),
            std::nextafter(std::ldexp(1.0, -1022), 0.0));
  // Non-finite terms: plain arithmetic.
  EXPECT_EQ(sum_of({inf, 1.0, -1e300}), inf);
  EXPECT_TRUE(std::isnan(sum_of({inf, -inf})));
  // add_product is exact: (1 + 2^-30)^2 needs 61 bits.
  const double x = 1.0 + std::ldexp(1.0, -30);
  ExactSum square;
  square.add_product(x, x);
  square.add(-1.0);
  square.add(-std::ldexp(1.0, -29));
  EXPECT_EQ(square.round(), std::ldexp(1.0, -60));
}

TEST(ExactSum, MatchesAnIntegerReferenceForAnyOrderAndSplit) {
  // Multiples of 2^-60 below 2^23 of both signs: their sum is an exact
  // __int128 in units of 2^-60, rounded once by the int-to-double
  // conversion.
  std::mt19937_64 rng(20261018);
  std::vector<double> values;
  __int128 units = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto significand = static_cast<std::int64_t>(rng() >> 11);
    const int exponent = static_cast<int>(rng() % 31);  // 2^-60 .. 2^-30
    const std::int64_t sign = rng() % 2 == 0 ? 1 : -1;
    values.push_back(std::ldexp(static_cast<double>(sign * significand),
                                exponent - 60));
    units += static_cast<__int128>(sign * significand) << exponent;
  }
  const double expected = std::ldexp(static_cast<double>(units), -60);
  for (int order = 0; order < 4; ++order) {
    ExactSum whole;
    ExactSum front;
    ExactSum back;
    for (std::size_t i = 0; i < values.size(); ++i) {
      whole.add(values[i]);
      (i < values.size() / 3 ? front : back).add(values[i]);
    }
    back.add(front);
    EXPECT_EQ(bits_of(whole.round()), bits_of(expected)) << "order " << order;
    EXPECT_EQ(bits_of(back.round()), bits_of(expected)) << "order " << order;
    // The parts sum back to the same value.
    ExactSum parts;
    whole.for_each_part([&](double part) { parts.add(part); });
    EXPECT_EQ(bits_of(parts.round()), bits_of(expected));
    std::shuffle(values.begin(), values.end(), rng);
  }
}

/// Dyadic (value, count) pairs of `distinct` values k/64 whose counts sum
/// to a power of two, so the exact mean is representable.
std::vector<std::pair<double, std::uint64_t>> dyadic_pairs(std::size_t distinct,
                                                           std::mt19937_64& rng) {
  std::vector<std::pair<double, std::uint64_t>> pairs;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < distinct; ++i) {
    const std::uint64_t count = 1 + rng() % 1000;
    pairs.emplace_back(static_cast<double>(rng() % (1u << 20)) / 64.0 - 4096.0,
                       count);
    total += count;
  }
  pairs.emplace_back(1.0 / 64.0, std::bit_ceil(total + 1) - total);
  return pairs;
}

TEST(ExactMoments, DyadicMeanIsExactAndVarianceWithinOneUlp) {
  std::mt19937_64 rng(7);
  for (const std::size_t distinct : {std::size_t{1}, std::size_t{37},
                                     std::size_t{4000}}) {
    auto pairs = dyadic_pairs(distinct, rng);
    long double sum = 0.0L;
    std::uint64_t total = 0;
    for (const auto& [value, count] : pairs) {
      sum += static_cast<long double>(value) * count;  // exact: < 2^64 bits
      total += count;
    }
    const long double mean = sum / total;
    long double deviations = 0.0L;
    for (const auto& [value, count] : pairs) {
      const long double d = value - mean;
      deviations += d * d * count;
    }
    const double variance = static_cast<double>(deviations / total);
    RunningStats first;
    for (int order = 0; order < 3; ++order) {
      ExactMoments half;
      ExactMoments rest;
      for (std::size_t i = 0; i < pairs.size(); ++i)
        (i % 2 == 0 ? half : rest).add(pairs[i].first, pairs[i].second);
      half.add(rest);
      const RunningStats stats = half.stats();
      EXPECT_EQ(stats.count(), total);
      EXPECT_EQ(stats.mean(), static_cast<double>(mean)) << distinct;
      EXPECT_LE(std::abs(stats.variance() - variance),
                std::nextafter(variance, INFINITY) - variance)
          << distinct << ": " << stats.variance() << " vs " << variance;
      if (order == 0) first = stats;
      EXPECT_EQ(bits_of(stats.mean()), bits_of(first.mean()));
      EXPECT_EQ(bits_of(stats.variance()), bits_of(first.variance()));
      EXPECT_EQ(stats.min(), first.min());
      EXPECT_EQ(stats.max(), first.max());
      std::shuffle(pairs.begin(), pairs.end(), rng);
    }
  }
}

TEST(ExactMoments, InfiniteValuesAreCountedApart) {
  const double inf = std::numeric_limits<double>::infinity();
  ExactMoments none;
  none.add(2.0, 3);
  none.add(4.0, 1);
  EXPECT_EQ(none.infinite_count(), 0u);
  EXPECT_EQ(none.stats().mean(), 2.5);
  EXPECT_EQ(none.stats().variance(), 0.75);
  // One, some, all: the mean and variance are +inf, never NaN; min and
  // max keep their meaning.
  for (const std::uint64_t infinite : {1u, 5u}) {
    ExactMoments some = none;
    some.add(inf, infinite);
    EXPECT_EQ(some.infinite_count(), infinite);
    EXPECT_EQ(some.count(), 4 + infinite);
    EXPECT_EQ(some.stats().mean(), inf);
    EXPECT_EQ(some.stats().variance(), inf);
    EXPECT_EQ(some.stats().min(), 2.0);
    EXPECT_EQ(some.stats().max(), inf);
  }
  ExactMoments all;
  all.add(inf, 7);
  EXPECT_EQ(all.stats().count(), 7u);
  EXPECT_EQ(all.stats().mean(), inf);
  EXPECT_EQ(all.stats().variance(), inf);
  EXPECT_EQ(all.stats().min(), inf);
  const RunningStats empty = ExactMoments().stats();
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.min(), 0.0);
  EXPECT_EQ(empty.max(), 0.0);
}

TEST(Quantile, MedianAndExtremes) {
  const std::array<double, 5> values = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 5.0);
}

TEST(Quantile, Interpolates) {
  const std::array<double, 2> values = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 0.25);
}

TEST(Quantile, RejectsBadInput) {
  const std::array<double, 1> one = {1.0};
  EXPECT_THROW(quantile(std::span<const double>{}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile(one, 1.5), std::invalid_argument);
}

TEST(Correlation, PerfectAndAnti) {
  const std::array<double, 4> x = {1.0, 2.0, 3.0, 4.0};
  const std::array<double, 4> y = {2.0, 4.0, 6.0, 8.0};
  const std::array<double, 4> z = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(x, z), -1.0, 1e-12);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("| alpha"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesFile) {
  const std::string path = "/tmp/dnnlife_test.csv";
  {
    CsvWriter writer(path, {"x", "y"});
    writer.add_row({"1", "2"});
    writer.add_row({"3", "4,5"});
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "x,y\n1,2\n3,\"4,5\"\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dnnlife::util
