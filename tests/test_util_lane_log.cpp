// Accuracy of the branch-free lane log against libm, on the inputs weight
// synthesis feeds it (x = 1 - 2|u| of a 53-bit draw) and on every binade.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/lane_log.hpp"
#include "util/rng.hpp"

namespace dnnlife::util {
namespace {

/// Distance in ulp between two doubles of the same sign.
std::uint64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::uint64_t>(a);
  const auto ib = std::bit_cast<std::uint64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

/// Expects lane_log within kLaneLogMaxUlp of std::log over `xs`; a
/// failure names the worst input.
void expect_within_bound(const std::vector<double>& xs) {
  std::vector<double> lanes(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) lanes[i] = lane_log(xs[i]);
  std::uint64_t worst = 0;
  double worst_x = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint64_t error = ulp_distance(lanes[i], std::log(xs[i]));
    if (error > worst) {
      worst = error;
      worst_x = xs[i];
    }
  }
  EXPECT_LE(worst, kLaneLogMaxUlp) << std::hexfloat << "at x = " << worst_x;
}

/// The log argument of draw m, as CounterRng::laplace_of_draw forms it.
double log_argument(std::uint64_t m) {
  return 1.0 - 2.0 * std::abs(CounterRng::open_uniform(m) - 0.5);
}

TEST(LaneLog, WithinBoundAtTheEndsOfEachDrawHalf) {
  // Both halves' first and last 2^20 draws: x near 2^-53 and near 1 from
  // the negative half, near 1 and near 2^-51 from the positive one.
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 52;
  constexpr std::uint64_t kRun = std::uint64_t{1} << 20;
  std::vector<double> xs;
  xs.reserve(4 * kRun);
  for (const std::uint64_t first : {std::uint64_t{0}, kHalf - kRun, kHalf,
                                    2 * kHalf - kRun})
    for (std::uint64_t m = first; m < first + kRun; ++m)
      xs.push_back(log_argument(m));
  EXPECT_EQ(xs.front(), 0x1.0p-53);
  EXPECT_EQ(log_argument(kHalf), 1.0);
  expect_within_bound(xs);
}

TEST(LaneLog, WithinBoundOnRandomDraws) {
  // 2^24 draws, in chunks of 2^20.
  const CounterRng rng(20240611);
  std::vector<double> xs(std::size_t{1} << 20);
  for (std::uint64_t chunk = 0; chunk < 16; ++chunk) {
    for (std::size_t i = 0; i < xs.size(); ++i)
      xs[i] = log_argument(rng.draw_at(chunk * xs.size() + i));
    expect_within_bound(xs);
  }
}

TEST(LaneLog, WithinBoundAtPowersOfTwoAndTheirNeighbours) {
  std::vector<double> xs;
  for (int e = -1022; e <= 0; ++e) {
    const double power = std::ldexp(1.0, e);
    xs.push_back(power);
    if (e < 0) xs.push_back(std::nextafter(power, 2.0));
    if (e > -1022) xs.push_back(std::nextafter(power, 0.0));
  }
  expect_within_bound(xs);
  EXPECT_EQ(lane_log(1.0), 0.0);
}

}  // namespace
}  // namespace dnnlife::util
