// Unit tests for histogram, statistics, table and CSV utilities.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

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
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.add(v);
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
  repeated.add(2.0);
  repeated.add(2.0);
  repeated.add(2.0);
  repeated.add(5.0);
  EXPECT_NEAR(weighted.mean(), repeated.mean(), 1e-12);
  EXPECT_NEAR(weighted.variance(), repeated.variance(), 1e-12);
}

TEST(RunningStats, UnitAddMatchesWeightOneBitForBit) {
  // The inline unit-weight add the report folds use must be the weighted
  // update at weight 1, bit for bit, and weight 0 must stay a no-op.
  std::mt19937_64 rng(20240917);
  RunningStats unit;
  RunningStats weighted;
  for (int i = 0; i < 10000; ++i) {
    const double value =
        std::ldexp(static_cast<double>(rng() >> 11), -53) * 40.0 - 7.0;
    unit.add(value);
    weighted.add(value, 1);
    weighted.add(-1e300, 0);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(unit.mean()),
              std::bit_cast<std::uint64_t>(weighted.mean()))
        << i;
  }
  EXPECT_EQ(unit.count(), weighted.count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(unit.variance()),
            std::bit_cast<std::uint64_t>(weighted.variance()));
  EXPECT_EQ(unit.min(), weighted.min());
  EXPECT_EQ(unit.max(), weighted.max());
  RunningStats empty;
  empty.add(3.0, 0);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.min(), 0.0);
  EXPECT_EQ(empty.max(), 0.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double v = 0.1 * i;
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
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
