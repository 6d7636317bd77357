#include "aging/report_evaluator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace dnnlife::aging {

namespace {

/// Assigns each distinct fixed-width integer key a dense id, in first-seen
/// order. A flat open-addressed table (Fibonacci hashing on the high
/// product bits + linear probing, load factor <= 1/2), so a lookup costs a
/// few nanoseconds — keying must stay cheap next to closed-form
/// evaluations that are themselves only one pow(). The slot array grows with
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

  /// An empty table of keys of `words` 64-bit words each.
  explicit ExactKeyTable(std::size_t words) : words_(words) {
    DNNLIFE_EXPECTS(words >= 1, "keys need at least one word");
    resize_slots(4);
  }

  /// Look `key` (`words` words) up, inserting it when new. One- and
  /// two-word keys (one- and two-segment reports) take fixed-width
  /// instances whose hash and compare loops unroll.
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
  std::size_t words_;
  std::uint32_t size_ = 0;
  unsigned shift_ = 60;
  std::size_t mask_ = 15;
};

}  // namespace

HistoryTable::HistoryTable(std::span<const EnvironmentSegmentView> segments)
    : cells_((check_segments(segments), segments.front().tracker->cell_count())),
      segments_(segments.size()) {
  struct Columns {
    const std::uint32_t* ones;
    const std::uint32_t* total;
  };
  std::vector<Columns> columns;
  for (const EnvironmentSegmentView& segment : segments)
    columns.push_back({segment.tracker->ones_time().data(),
                       segment.tracker->total_time().data()});
  // The regions' cell ranges: the tags partition the cells, in order.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (const CellRegion& tag : segments.front().tracker->regions()) {
    ranges.emplace_back(tag.cell_begin, tag.cell_end);
    region_ends_.push_back(static_cast<std::size_t>(tag.cell_end));
  }
  if (ranges.empty()) ranges.emplace_back(0, cells_);
  ExactKeyTable keys(segments_);
  std::vector<std::uint64_t> key(segments_);
  // counts[id] is the number of cells of the current region keyed to id so
  // far; a region's first cell of an id appends its tally, and the region's
  // end settles every tally it appended and zeroes those counts again.
  std::vector<std::uint64_t> counts;
  offsets_.push_back(0);
  for (const auto& [begin, end] : ranges) {
    const std::size_t first_tally = tallies_.size();
    for (std::size_t cell = begin; cell < end; ++cell) {
      for (std::size_t s = 0; s < segments_; ++s)
        key[s] = std::uint64_t{columns[s].ones[cell]} << 32 |
                 columns[s].total[cell];
      const ExactKeyTable::Lookup lookup = keys.insert(key.data());
      if (lookup.inserted) {
        firsts_.push_back(cell);
        counts.push_back(0);
      }
      if (counts[lookup.id]++ == 0) tallies_.push_back({lookup.id, 0});
    }
    for (std::size_t t = first_tally; t < tallies_.size(); ++t)
      tallies_[t].cells = std::exchange(counts[tallies_[t].id], 0);
    offsets_.push_back(tallies_.size());
  }
}

void HistoryTable::check_matches(
    std::span<const EnvironmentSegmentView> segments) const {
  const std::vector<CellRegion>& tags = segments.front().tracker->regions();
  DNNLIFE_EXPECTS(segments.size() == segments_ &&
                      segments.front().tracker->cell_count() == cells_ &&
                      tags.size() == region_ends_.size() &&
                      std::equal(tags.begin(), tags.end(), region_ends_.begin(),
                                 [](const CellRegion& tag, std::size_t end) {
                                   return tag.cell_end == end;
                                 }),
                  "history table was built for a different state");
}

}  // namespace dnnlife::aging
