// Exact-duty memoisation shared by the batched model-evaluation hooks.
//
// Per-cell duty-cycles are ratios of 32-bit residency counters, so large
// memories carry massive duty repetition (every balanced cell is exactly
// 0.5, every cell of a region written identically shares one ratio). The
// batched evaluation hooks (DeviceAgingModel::degradation_batch /
// years_to_reach_batch) exploit that: within one batch, each *distinct*
// duty bit pattern is solved once and every repeat is served from the
// memo. Model evaluation is a pure function of the duty, so the memoised
// batch is bit-identical to the per-cell loop for any batch composition —
// which is what keeps the hash-pinned report goldens intact.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace dnnlife::aging {

/// Instrumentation of one batched evaluation call (eval-budget tests and
/// solver diagnostics). Curve/slope counters are filled only by batch
/// implementations that own their solver loop (e.g. the pbti-hci batched
/// Newton); the generic defaults count solves and memo hits.
struct BatchSolveStats {
  std::uint64_t solves = 0;             ///< distinct duties actually solved
  std::uint64_t memo_hits = 0;          ///< cells served from the duty memo
  std::uint64_t curve_evaluations = 0;  ///< degradation-curve evaluations
  std::uint64_t slope_evaluations = 0;  ///< derivative evaluations
};

namespace detail {

/// out[i] = solve(duties[i]), solving each distinct duty bit pattern once.
/// The memo is a flat open-addressed table (Fibonacci hashing + linear
/// probing, load factor <= 1/2) so a lookup costs a few nanoseconds — the
/// memo must stay profitable even for closed-form solves that are
/// themselves only one pow(). Keys are the exact duty bit patterns, so a
/// hit returns the identical double a fresh solve would have produced.
template <class Solve>
void solve_batch_memoised(std::span<const double> duties,
                          std::span<double> out, BatchSolveStats* stats,
                          Solve&& solve) {
  DNNLIFE_EXPECTS(out.size() == duties.size(),
                  "batch output size must match the duty count");
  const std::size_t count = duties.size();
  if (count == 0) return;
  std::size_t capacity = 16;
  while (capacity < count * 2) capacity <<= 1;
  const std::size_t mask = capacity - 1;
  std::vector<std::uint64_t> keys(capacity);
  std::vector<double> values(capacity);
  std::vector<std::uint8_t> occupied(capacity, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t key = std::bit_cast<std::uint64_t>(duties[i]);
    std::size_t slot = (key * 0x9e3779b97f4a7c15ULL) & mask;
    while (occupied[slot] && keys[slot] != key) slot = (slot + 1) & mask;
    if (!occupied[slot]) {
      occupied[slot] = 1;
      keys[slot] = key;
      values[slot] = solve(duties[i]);
      if (stats != nullptr) ++stats->solves;
    } else if (stats != nullptr) {
      ++stats->memo_hits;
    }
    out[i] = values[slot];
  }
}

}  // namespace detail
}  // namespace dnnlife::aging
