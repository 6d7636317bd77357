#include "aging/report_evaluator.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <type_traits>

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

/// `narrow`'s ids in a wider index with room for `cells` (the narrow one
/// is freed on return).
template <class Wide, class Narrow>
std::vector<Wide> widened(std::vector<Narrow> narrow, std::size_t cells) {
  std::vector<Wide> wide;
  wide.reserve(cells);
  wide.assign(narrow.begin(), narrow.end());
  return wide;
}

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
  ExactKeyTable keys(segments_);
  std::vector<std::uint64_t> key(segments_);
  std::size_t cell = 0;
  // Append the ids of the cells from `cell` on to `index`, and keep it once
  // every cell is keyed. Stops (false) at the first cell whose id does not
  // fit the index; that cell is keyed again, as a hit, into the wider one.
  // Indices are reserved, not zero-filled, so an index only touches the
  // pages it fills: a widening costs the cells keyed so far, not a whole
  // narrow index.
  const auto scan = [&](auto& index) {
    using Index = typename std::decay_t<decltype(index)>::value_type;
    for (; cell < cells_; ++cell) {
      for (std::size_t s = 0; s < segments_; ++s)
        key[s] = std::uint64_t{columns[s].ones[cell]} << 32 |
                 columns[s].total[cell];
      const ExactKeyTable::Lookup lookup = keys.insert(key.data());
      if (lookup.inserted) firsts_.push_back(cell);
      if (lookup.id > std::numeric_limits<Index>::max()) return false;
      index.push_back(static_cast<Index>(lookup.id));
    }
    index_ = std::move(index);
    return true;
  };
  std::vector<std::uint8_t> index8;
  index8.reserve(cells_);
  if (scan(index8)) return;
  auto index16 = widened<std::uint16_t>(std::move(index8), cells_);
  if (scan(index16)) return;
  auto index32 = widened<std::uint32_t>(std::move(index16), cells_);
  scan(index32);
}

}  // namespace dnnlife::aging
