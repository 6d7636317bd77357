#include "aging/duty_cycle.hpp"

#include <algorithm>

namespace dnnlife::aging {

DutyCycleTracker::DutyCycleTracker(std::size_t cell_count)
    : ones_time_(cell_count, 0), total_time_(cell_count, 0) {
  DNNLIFE_EXPECTS(cell_count > 0, "tracker needs at least one cell");
}

DutyCycleTracker::DutyCycleTracker(std::size_t cell_count, Uninitialized)
    : ones_time_(cell_count), total_time_(cell_count) {
  DNNLIFE_EXPECTS(cell_count > 0, "tracker needs at least one cell");
}

void DutyCycleTracker::set_regions(std::vector<CellRegion> regions) {
  std::uint64_t next_cell = 0;
  for (const CellRegion& region : regions) {
    DNNLIFE_EXPECTS(!region.name.empty(), "cell region needs a name");
    DNNLIFE_EXPECTS(region.cell_begin < region.cell_end,
                    "cell region '" + region.name + "' is empty");
    DNNLIFE_EXPECTS(region.cell_begin == next_cell,
                    "cell regions must partition the cells (at region '" +
                        region.name + "')");
    next_cell = region.cell_end;
  }
  DNNLIFE_EXPECTS(regions.empty() || next_cell == cell_count(),
                  "cell regions must cover every cell");
  regions_ = std::move(regions);
}

void DutyCycleTracker::merge(const DutyCycleTracker& other) {
  DNNLIFE_EXPECTS(other.cell_count() == cell_count(),
                  "tracker geometries differ");
  if (regions_.empty())
    regions_ = other.regions_;
  else
    DNNLIFE_EXPECTS(other.regions_.empty() || other.regions_ == regions_,
                    "tracker region tags differ");
  for (std::size_t cell = 0; cell < ones_time_.size(); ++cell) {
    ones_time_[cell] += other.ones_time_[cell];
    total_time_[cell] += other.total_time_[cell];
  }
}

void DutyCycleTracker::save(std::string& out) const {
  util::append_u64le(out, cell_count());
  util::append_u64le(out, regions_.size());
  for (const CellRegion& region : regions_) {
    util::append_sized_bytes(out, region.name);
    util::append_u64le(out, region.cell_begin);
    util::append_u64le(out, region.cell_end);
  }
  util::append_u32le_array(out, ones_time_);
  util::append_u32le_array(out, total_time_);
}

std::size_t DutyCycleTracker::saved_bytes() const noexcept {
  std::size_t bytes = 8 + 8 + 8 * cell_count();  // counts + accumulators
  for (const CellRegion& region : regions_)
    bytes += 8 + region.name.size() + 16;
  return bytes;
}

DutyCycleTracker DutyCycleTracker::load(util::ByteReader& reader) {
  const std::uint64_t cell_count = reader.u64("tracker cell count");
  DNNLIFE_EXPECTS(cell_count > 0, "tracker needs at least one cell");
  // Each cell contributes 8 bytes of accumulators; reject counts the
  // buffer cannot possibly hold before allocating anything.
  if (cell_count > reader.remaining() / 8)
    throw std::invalid_argument("truncated input: tracker cell count " +
                                std::to_string(cell_count) +
                                " exceeds the remaining payload");
  const std::uint64_t region_count = reader.u64("tracker region count");
  if (region_count > cell_count)
    throw std::invalid_argument("tracker region count " +
                                std::to_string(region_count) +
                                " exceeds the cell count");
  std::vector<CellRegion> regions;
  regions.reserve(static_cast<std::size_t>(region_count));
  for (std::uint64_t i = 0; i < region_count; ++i) {
    CellRegion region;
    region.name = std::string(reader.sized_bytes("region name"));
    region.cell_begin = reader.u64("region begin");
    region.cell_end = reader.u64("region end");
    regions.push_back(std::move(region));
  }
  DutyCycleTracker tracker(static_cast<std::size_t>(cell_count));
  reader.u32_array(tracker.ones_time_, "tracker ones time");
  reader.u32_array(tracker.total_time_, "tracker total time");
  tracker.set_regions(std::move(regions));  // re-validates the partition
  return tracker;
}

std::size_t DutyCycleTracker::unused_cell_count() const {
  return static_cast<std::size_t>(
      std::count(total_time_.begin(), total_time_.end(), 0u));
}

std::vector<EnvironmentSegmentView> segment_views(
    std::span<const EnvironmentSegment> segments) {
  std::vector<EnvironmentSegmentView> views;
  views.reserve(segments.size());
  for (const EnvironmentSegment& segment : segments)
    views.push_back(EnvironmentSegmentView{&segment.tracker,
                                           segment.environment});
  return views;
}

void check_segments(std::span<const EnvironmentSegmentView> segments) {
  DNNLIFE_EXPECTS(!segments.empty(), "phased workload has no segments");
  DNNLIFE_EXPECTS(segments.front().tracker != nullptr,
                  "segment view without a tracker");
  const DutyCycleTracker& first = *segments.front().tracker;
  for (const EnvironmentSegmentView& segment : segments) {
    DNNLIFE_EXPECTS(segment.tracker != nullptr,
                    "segment view without a tracker");
    validate_environment(segment.environment);
    DNNLIFE_EXPECTS(segment.tracker->cell_count() == first.cell_count(),
                    "segment tracker geometries differ");
    DNNLIFE_EXPECTS(segment.tracker->regions() == first.regions(),
                    "segment tracker region tags differ");
  }
}

CellResidency gather_cell_segments(
    std::span<const EnvironmentSegmentView> segments, std::size_t cell,
    std::vector<StressSegment>& out) {
  out.clear();
  CellResidency residency;
  for (const EnvironmentSegmentView& segment : segments) {
    const std::uint32_t total = segment.tracker->total_time()[cell];
    if (total == 0) continue;
    residency.ones += segment.tracker->ones_time()[cell];
    residency.total += total;
    out.push_back(StressSegment{segment.tracker->duty(cell),
                                static_cast<double>(total),
                                segment.environment});
  }
  return residency;
}

}  // namespace dnnlife::aging
