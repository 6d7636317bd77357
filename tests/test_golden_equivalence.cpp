// Golden fast-vs-reference equivalence on a hand-built write stream, the
// closed-form balancer phase count against the stepped loop, and the
// word-level duty accumulation engine against per-bit accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "aging/duty_cycle.hpp"
#include "core/bias_balancer.hpp"
#include "core/fast_simulator.hpp"
#include "core/reference_simulator.hpp"
#include "sim/write_stream.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace dnnlife::core {
namespace {

/// A 6x96 memory exercised over 5 blocks: rows written once, repeatedly,
/// twice in the same block (zero residency), with an all-zero payload, an
/// all-one payload against the 32-bit tail word, and a content-preserving
/// rewrite (row 1's block-3 payload repeats its block-0 payload).
sim::VectorWriteStream make_golden_stream() {
  sim::VectorWriteStream stream(sim::MemoryGeometry{6, 96}, 5);
  const std::vector<std::uint64_t> a{0x0123456789abcdefULL, 0x0000000055aa55aaULL};
  const std::vector<std::uint64_t> b{0xdeadbeefcafef00dULL, 0x00000000ffff0000ULL};
  const std::vector<std::uint64_t> c{0x5555555555555555ULL, 0x0000000033333333ULL};
  const std::vector<std::uint64_t> zeros{0, 0};
  const std::vector<std::uint64_t> ones{~0ULL, util::low_mask(32)};
  stream.add_write(0, 0, a);
  stream.add_write(1, 0, b);
  stream.add_write(2, 1, c);
  stream.add_write(3, 1, a);
  stream.add_write(3, 1, b);  // rewritten within the block: zero residency
  stream.add_write(0, 2, c);
  stream.add_write(4, 2, zeros);
  stream.add_write(1, 3, b);  // content-preserving rewrite
  stream.add_write(0, 4, b);
  stream.add_write(5, 4, ones);
  return stream;
}

std::vector<std::uint32_t> non_uniform_durations() { return {3, 1, 4, 2, 5}; }

/// The policies whose fast-path aggregation is exactly (not just
/// statistically) equivalent to the reference replay. DNN-Life is included
/// through its deterministic endpoints: at TRBG bias 1.0 (or 0.0) the
/// enable bit is a pure function of the bias-balancer phase, so the
/// closed-form phase count is exercised end-to-end with bit-exact
/// expectations.
std::vector<PolicyConfig> golden_policies() {
  return {PolicyConfig::none(), PolicyConfig::inversion(),
          PolicyConfig::barrel_shifter(8), PolicyConfig::dnn_life(1.0),
          PolicyConfig::dnn_life(0.0)};
}

class GoldenEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(GoldenEquivalence, AllPolicyKindsMatchBitExactly) {
  auto stream = make_golden_stream();
  if (GetParam()) stream.set_block_durations(non_uniform_durations());
  // For the DNN-Life endpoints the reference's warmup inference shifts the
  // balancer phase schedule by W writes relative to the fast simulator's
  // cyclic steady-state model; the two indexings visit the same phase
  // multiset — and are therefore bit-exact — whenever the accounted window
  // is a whole number of balancer periods: N*W ≡ 0 mod 2^(M+1). Here
  // W = 10 writes/inference and M = 4 (period 32), so N = 16 (160 = 5*32).
  const unsigned inferences = 16;
  for (const PolicyConfig& policy : golden_policies()) {
    const auto reference =
        simulate_reference(stream, policy, {inferences, true});
    const auto fast = simulate_fast(stream, policy, {inferences});
    EXPECT_EQ(reference.ones_time(), fast.ones_time()) << policy.name();
    EXPECT_EQ(reference.total_time(), fast.total_time()) << policy.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Durations, GoldenEquivalence,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "non_uniform" : "uniform";
                         });

TEST(GoldenEquivalence, MultithreadedFastSimIsBitIdentical) {
  for (const bool non_uniform : {false, true}) {
    auto stream = make_golden_stream();
    if (non_uniform) stream.set_block_durations(non_uniform_durations());
    auto policies = golden_policies();
    policies.push_back(PolicyConfig::dnn_life(0.5));  // sampled path
    policies.push_back(PolicyConfig::dnn_life(0.7, true, 4));
    for (const PolicyConfig& policy : policies) {
      const auto single = simulate_fast(stream, policy, {10, 1});
      const auto sharded = simulate_fast(stream, policy, {10, 4});
      EXPECT_EQ(single.ones_time(), sharded.ones_time()) << policy.name();
      EXPECT_EQ(single.total_time(), sharded.total_time()) << policy.name();
    }
  }
}

TEST(BalancerPhaseCount, ClosedFormMatchesSteppedLoop) {
  for (const unsigned bits : {0u, 1u, 3u, 4u, 7u}) {
    for (const std::uint64_t step : {0ULL, 1ULL, 7ULL, 16ULL, 33ULL, 1021ULL}) {
      for (const std::uint64_t offset : {0ULL, 1ULL, 15ULL, 16ULL, 97ULL}) {
        for (const std::uint64_t n : {0ULL, 1ULL, 5ULL, 100ULL, 513ULL}) {
          std::uint64_t loop = 0;
          for (std::uint64_t i = 0; i < n; ++i)
            loop += BiasBalancer::phase_at(offset + i * step, bits) ? 1u : 0u;
          EXPECT_EQ(BiasBalancer::count_phase_one(offset, step, n, bits), loop)
              << "bits=" << bits << " step=" << step << " offset=" << offset
              << " n=" << n;
        }
      }
    }
  }
}

TEST(BalancerPhaseCount, FloorSumMatchesBruteForce) {
  for (std::uint64_t m = 1; m <= 13; ++m)
    for (std::uint64_t step = 0; step <= 9; ++step)
      for (std::uint64_t offset = 0; offset <= 11; ++offset)
        for (std::uint64_t n = 0; n <= 40; n += 5) {
          std::uint64_t brute = 0;
          for (std::uint64_t i = 0; i < n; ++i)
            brute += (offset + i * step) / m;
          EXPECT_EQ(util::floor_sum(n, step, offset, m), brute)
              << "n=" << n << " step=" << step << " offset=" << offset
              << " m=" << m;
        }
}

TEST(DutyAccumulateRow, MatchesPerBitAccounting) {
  util::Xoshiro256ss rng(0xacc0ULL);
  for (const std::uint32_t row_bits : {1u, 17u, 64u, 96u, 200u}) {
    const std::size_t words = (row_bits + 63) / 64;
    aging::DutyCycleTracker word_level(2 * row_bits);
    aging::DutyCycleTracker per_bit(2 * row_bits);
    for (int iter = 0; iter < 20; ++iter) {
      std::vector<std::uint64_t> payload(words);
      for (auto& w : payload) w = rng.next();
      if (iter % 5 == 1) std::fill(payload.begin(), payload.end(), 0);
      if (iter % 5 == 2) std::fill(payload.begin(), payload.end(), ~0ULL);
      payload.back() &= util::low_mask(row_bits % 64 == 0 ? 64 : row_bits % 64);
      // hi < lo on odd iterations: the blend must stay exact either way.
      const std::uint32_t hi = iter % 2 == 0 ? 7 + iter : 2;
      const std::uint32_t lo = iter % 2 == 0 ? 3 : 11 + iter;
      const std::uint32_t slot_total = hi + lo;
      const std::size_t base = (iter % 2) * row_bits;
      word_level.accumulate_row(payload, row_bits, base, hi, lo, slot_total);
      for (std::uint32_t bit = 0; bit < row_bits; ++bit) {
        const bool set = (payload[bit / 64] >> (bit % 64)) & 1u;
        per_bit.add_ones_time(base + bit, set ? hi : lo);
        per_bit.add_total_time(base + bit, slot_total);
      }
    }
    EXPECT_EQ(word_level.ones_time(), per_bit.ones_time())
        << "row_bits=" << row_bits;
    EXPECT_EQ(word_level.total_time(), per_bit.total_time())
        << "row_bits=" << row_bits;
  }
}

}  // namespace
}  // namespace dnnlife::core
