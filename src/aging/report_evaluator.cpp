#include "aging/report_evaluator.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "aging/duty_memo.hpp"

namespace dnnlife::aging {

namespace {

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
  detail::ExactKeyTable keys;
  keys.reset(segments_);
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
      const detail::ExactKeyTable::Lookup lookup = keys.insert(key.data());
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
