// Exact-key memoisation shared by the batched model-evaluation hooks and
// the report history table.
//
// Per-cell duty-cycles are ratios of 32-bit residency counters, so large
// memories carry massive duty repetition (every balanced cell is exactly
// 0.5, every cell of a region written identically shares one ratio). The
// batched evaluation hooks (DeviceAgingModel::degradation_batch /
// years_to_reach_batch) exploit that: within one batch, each *distinct*
// duty bit pattern is solved once and every repeat is served from the
// memo. The report history table (aging/report_evaluator.hpp) applies the
// same table one level up, keyed on a cell's whole stress history (its
// residency counters in every segment) across the whole state. Model
// evaluation is a pure function of those keys, so memoised results are
// bit-identical to the per-cell loop for any batch composition — which is
// what keeps the hash-pinned report goldens intact.
#pragma once

#include <algorithm>
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

/// Assigns each distinct fixed-width integer key a dense id, in first-seen
/// order. A flat open-addressed table (Fibonacci hashing on the high
/// product bits + linear probing, load factor <= 1/2), so a lookup costs a
/// few nanoseconds — the memo must stay profitable even for closed-form
/// solves that are themselves only one pow(). The slot array grows with
/// the number of distinct keys, not with the number of lookups, so a
/// whole-state scan over millions of cells with a few hundred histories
/// keeps its table in L1. Keys compare exactly, word for word, so a hit
/// names the very key a fresh evaluation would see.
class ExactKeyTable {
 public:
  struct Lookup {
    std::uint32_t id;  ///< first-seen rank of the key
    bool inserted;     ///< true when the key was new
  };

  /// Forget every key and take keys of `words` 64-bit words each from now
  /// on. Storage is reused across calls.
  void reset(std::size_t words) {
    DNNLIFE_EXPECTS(words >= 1, "keys need at least one word");
    words_ = words;
    size_ = 0;
    keys_.clear();
    resize_slots(4);
  }

  /// Look `key` (`words` words) up, inserting it when new. One- and
  /// two-word keys (the duty memo, one- and two-segment reports) take
  /// fixed-width instances whose hash and compare loops unroll.
  Lookup insert(const std::uint64_t* key) {
    if (words_ == 1) return insert_words<1>(key);
    if (words_ == 2) return insert_words<2>(key);
    return insert_words<0>(key);
  }

 private:
  static std::uint32_t tag_id(std::uint32_t tag) noexcept { return tag - 1; }

  /// Hash of a kWords-word key (0 = words_ words).
  template <std::size_t kWords = 0>
  std::uint64_t hash(const std::uint64_t* key) const noexcept {
    const std::size_t words = kWords == 0 ? words_ : kWords;
    std::uint64_t hash = 0;
    for (std::size_t w = 0; w < words; ++w)
      hash = (std::rotl(hash, 31) ^ key[w]) * 0x9e3779b97f4a7c15ULL;
    return hash;
  }

  /// 2^bits empty slots, then every held key re-placed.
  void resize_slots(unsigned bits) {
    shift_ = 64 - bits;
    mask_ = (std::size_t{1} << bits) - 1;
    slots_.assign(mask_ + 1, 0);
    for (std::uint32_t id = 0; id < size_; ++id) {
      std::size_t slot = hash(keys_.data() + id * words_) >> shift_;
      while (slots_[slot] != 0) slot = (slot + 1) & mask_;
      slots_[slot] = id + 1;
    }
  }

  /// insert() for kWords-word keys (0 = words_ words).
  template <std::size_t kWords>
  Lookup insert_words(const std::uint64_t* key) {
    const std::size_t words = kWords == 0 ? words_ : kWords;
    for (std::size_t slot = hash<kWords>(key) >> shift_;;
         slot = (slot + 1) & mask_) {
      const std::uint32_t tag = slots_[slot];
      if (tag == 0) {
        DNNLIFE_EXPECTS(size_ < UINT32_MAX, "exact-key table is full");
        keys_.insert(keys_.end(), key, key + words);
        slots_[slot] = ++size_;
        if (2 * std::size_t{size_} > mask_)
          resize_slots(static_cast<unsigned>(65 - shift_));
        return {tag_id(size_), true};
      }
      if (std::equal(key, key + words, keys_.data() + tag_id(tag) * words))
        return {tag_id(tag), false};
    }
  }

  std::vector<std::uint32_t> slots_;  ///< 0 = empty, else id + 1
  std::vector<std::uint64_t> keys_;   ///< key of id i at [i*words, (i+1)*words)
  std::size_t words_ = 1;
  std::uint32_t size_ = 0;
  unsigned shift_ = 60;
  std::size_t mask_ = 15;
};

/// out[i] = solve(duties[i]), solving each distinct duty bit pattern once.
/// Keys are the exact duty bit patterns, so a hit returns the identical
/// double a fresh solve would have produced.
template <class Solve>
void solve_batch_memoised(std::span<const double> duties,
                          std::span<double> out, BatchSolveStats* stats,
                          Solve&& solve) {
  DNNLIFE_EXPECTS(out.size() == duties.size(),
                  "batch output size must match the duty count");
  if (duties.empty()) return;
  ExactKeyTable table;
  table.reset(1);
  std::vector<double> values;
  for (std::size_t i = 0; i < duties.size(); ++i) {
    const std::uint64_t key = std::bit_cast<std::uint64_t>(duties[i]);
    const ExactKeyTable::Lookup lookup = table.insert(&key);
    if (lookup.inserted) {
      values.push_back(solve(duties[i]));
      if (stats != nullptr) ++stats->solves;
    } else if (stats != nullptr) {
      ++stats->memo_hits;
    }
    out[i] = values[lookup.id];
  }
}

}  // namespace detail
}  // namespace dnnlife::aging
