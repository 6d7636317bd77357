// Unit tests for the deterministic RNG layer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace dnnlife::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  EXPECT_EQ(splitmix64(0), splitmix64(0));
  EXPECT_NE(splitmix64(1), splitmix64(2));
}

TEST(Xoshiro, SameSeedSameStream) {
  Xoshiro256ss a(42);
  Xoshiro256ss b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256ss a(1);
  Xoshiro256ss b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double value = rng.next_double();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(Xoshiro, NextBelowRespectsBound) {
  Xoshiro256ss rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Xoshiro, NextBelowCoversRange) {
  Xoshiro256ss rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro, BernoulliEdgeCases) {
  Xoshiro256ss rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bernoulli(0.0));
    EXPECT_TRUE(rng.next_bernoulli(1.0));
  }
}

TEST(Xoshiro, BernoulliMeanMatchesP) {
  Xoshiro256ss rng(17);
  const int n = 200000;
  int ones = 0;
  for (int i = 0; i < n; ++i) ones += rng.next_bernoulli(0.7) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.7, 0.01);
}

TEST(Xoshiro, GaussianMoments) {
  Xoshiro256ss rng(23);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(CounterRng, RandomAccessIsOrderIndependent) {
  CounterRng rng(99);
  const double forward = rng.double_at(5);
  // Read other indices in between; value must not change.
  (void)rng.double_at(0);
  (void)rng.double_at(1000000);
  EXPECT_EQ(rng.double_at(5), forward);
}

TEST(CounterRng, DifferentSeedsDecorrelate) {
  CounterRng a(1);
  CounterRng b(2);
  int close = 0;
  for (std::uint64_t i = 0; i < 1000; ++i)
    close += std::abs(a.double_at(i) - b.double_at(i)) < 1e-3 ? 1 : 0;
  EXPECT_LT(close, 10);
}

TEST(CounterRng, LaplaceVariance) {
  CounterRng rng(13);
  const int n = 200000;
  const double scale = 1.5;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = CounterRng::laplace_of_draw(
        rng.draw_at(static_cast<std::uint64_t>(i)), scale);
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum_sq / n, 2.0 * scale * scale, 0.2);
}

TEST(CounterRng, EveryDrawGivesAFiniteValue) {
  // (m + 0.5) of the last draw would round up to 2^53: it maps like the
  // draw below it instead of to an infinite value.
  const std::uint64_t last = (std::uint64_t{1} << 53) - 1;
  EXPECT_EQ(CounterRng::laplace_of_draw(last, 1.0),
            CounterRng::laplace_of_draw(last - 1, 1.0));
  for (const std::uint64_t draw : {std::uint64_t{0}, last - 1, last})
    EXPECT_TRUE(std::isfinite(CounterRng::laplace_of_draw(draw, 1.0)));
  EXPECT_LT(CounterRng::laplace_of_draw(0, 1.0), -36.0);
  EXPECT_GT(CounterRng::laplace_of_draw(last, 1.0), 35.0);
}

TEST(DeriveSeed, ProducesDistinctStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 100; ++s) seeds.insert(derive_seed(42, s));
  EXPECT_EQ(seeds.size(), 100u);
}

// ---- bitops ---------------------------------------------------------------

TEST(BitOps, BitAtAndWithBit) {
  EXPECT_TRUE(bit_at(0b100, 2));
  EXPECT_FALSE(bit_at(0b100, 1));
  EXPECT_EQ(with_bit(0, 3, true), 0b1000u);
  EXPECT_EQ(with_bit(0b1000, 3, false), 0u);
}

TEST(BitOps, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(8), 0xffu);
  EXPECT_EQ(low_mask(64), ~std::uint64_t{0});
}

TEST(BitOps, RotateLeftBasics) {
  EXPECT_EQ(rotate_left(0b0001, 1, 4), 0b0010u);
  EXPECT_EQ(rotate_left(0b1000, 1, 4), 0b0001u);
  EXPECT_EQ(rotate_left(0b1010, 4, 4), 0b1010u);  // full rotation
  EXPECT_EQ(rotate_left(0xffu, 3, 8), 0xffu);     // invariant word
}

TEST(BitOps, RotateRightInvertsLeft) {
  for (unsigned width : {3u, 8u, 13u, 32u, 64u}) {
    Xoshiro256ss rng(width);
    for (int i = 0; i < 100; ++i) {
      const std::uint64_t word = rng.next() & low_mask(width);
      const unsigned amount = static_cast<unsigned>(rng.next_below(width));
      EXPECT_EQ(rotate_right(rotate_left(word, amount, width), amount, width),
                word);
    }
  }
}

TEST(BitOps, RotatePreservesPopcount) {
  Xoshiro256ss rng(4242);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t word = rng.next() & low_mask(32);
    const unsigned amount = static_cast<unsigned>(rng.next_below(32));
    EXPECT_EQ(popcount(rotate_left(word, amount, 32)), popcount(word));
  }
}

TEST(BitOps, RotateRejectsBitsAboveWidth) {
  EXPECT_THROW(rotate_left(0x100, 1, 8), std::invalid_argument);
}

TEST(BitOps, CeilDivAndLog2) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(0, 3), 0u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(64), 6u);
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(63));
  EXPECT_FALSE(is_power_of_two(0));
}

}  // namespace
}  // namespace dnnlife::util
