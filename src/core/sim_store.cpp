#include "core/sim_store.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/binio.hpp"
#include "util/check.hpp"
#include "util/fsio.hpp"
#include "util/hash.hpp"

#ifdef DNNLIFE_HAVE_FSYNC
#include <unistd.h>
#endif

namespace dnnlife::core {

namespace fs = std::filesystem;

namespace {

/// 16-byte file magic; anything else is "not a simulation-state file".
constexpr std::string_view kMagic = "dnnlife-simstate";
/// v2: the trailing checksum is util::wordlane64 (v1's was FNV-1a). No v1
/// reader is kept; a v1 entry fails the version check like any stale one.
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::size_t kChecksumBytes = 8;
/// magic + version + checksum — the smallest conceivable valid file.
constexpr std::size_t kMinFileBytes = kMagic.size() + 4 + kChecksumBytes;

constexpr std::string_view kEntrySuffix = ".simstate";
constexpr std::string_view kQuarantineDir = "quarantine";

/// Word-parallel checksum over the framed bytes: detects any single
/// flipped byte by construction (see util::wordlane64) and the truncations
/// that survive the length checks, at memory bandwidth.
std::uint64_t content_checksum(std::string_view bytes) {
  return util::wordlane64(bytes);
}

std::uint64_t process_tag() {
#ifdef DNNLIFE_HAVE_FSYNC
  return static_cast<std::uint64_t>(::getpid());
#else
  return 0;
#endif
}

bool is_hex_fingerprint(const std::string& fingerprint) {
  return !fingerprint.empty() &&
         fingerprint.find_first_not_of("0123456789abcdef") ==
             std::string::npos;
}

}  // namespace

std::string serialize_simulation_state(const SimulationState& state) {
  // Size the buffer exactly once: an entry is megabytes of tracker words.
  std::size_t size = kMagic.size() + 4 + 4 + 4 + 8 + 8 + kChecksumBytes;
  for (const aging::CellRegion& region : state.regions)
    size += 8 + region.name.size() + 16;
  for (const aging::DutyCycleTracker& tracker : state.segment_trackers)
    size += tracker.saved_bytes();
  std::string out;
  out.reserve(size);
  out.append(kMagic);
  util::append_u32le(out, kFormatVersion);
  util::append_u32le(out, state.geometry.rows);
  util::append_u32le(out, state.geometry.row_bits);
  util::append_u64le(out, state.regions.size());
  for (const aging::CellRegion& region : state.regions) {
    util::append_sized_bytes(out, region.name);
    util::append_u64le(out, region.cell_begin);
    util::append_u64le(out, region.cell_end);
  }
  util::append_u64le(out, state.segment_trackers.size());
  for (const aging::DutyCycleTracker& tracker : state.segment_trackers)
    tracker.save(out);
  util::append_u64le(out, content_checksum(out));
  DNNLIFE_ENSURES(out.size() == size, "simulation-state size mismatch");
  return out;
}

SimStore::StatePtr deserialize_simulation_state(std::string_view bytes,
                                                const std::string& label) {
  try {
    if (bytes.size() < kMinFileBytes)
      throw std::invalid_argument("truncated: " + std::to_string(bytes.size()) +
                                  " bytes is smaller than any valid entry");
    if (bytes.substr(0, kMagic.size()) != kMagic)
      throw std::invalid_argument("not a simulation-state file (bad magic)");
    util::ByteReader header(bytes.substr(kMagic.size()));
    const std::uint32_t version = header.u32("format version");
    if (version != kFormatVersion)
      throw std::invalid_argument(
          "format version " + std::to_string(version) +
          " is not supported (this build reads v" +
          std::to_string(kFormatVersion) + ")");
    const std::string_view framed =
        bytes.substr(0, bytes.size() - kChecksumBytes);
    util::ByteReader tail(bytes.substr(bytes.size() - kChecksumBytes));
    if (tail.u64("content checksum") != content_checksum(framed))
      throw std::invalid_argument(
          "content checksum mismatch (corrupt or torn entry)");

    util::ByteReader reader(
        framed.substr(kMagic.size() + 4));  // past magic + version
    auto state = std::make_shared<SimulationState>();
    state->geometry.rows = reader.u32("geometry rows");
    state->geometry.row_bits = reader.u32("geometry row bits");
    state->geometry.validate();
    const std::uint64_t cells = state->geometry.cells();
    const std::uint64_t region_count = reader.u64("region count");
    if (region_count > cells)
      throw std::invalid_argument("region count " +
                                  std::to_string(region_count) +
                                  " exceeds the cell count");
    state->regions.reserve(static_cast<std::size_t>(region_count));
    for (std::uint64_t i = 0; i < region_count; ++i) {
      aging::CellRegion region;
      region.name = std::string(reader.sized_bytes("region name"));
      region.cell_begin = reader.u64("region begin");
      region.cell_end = reader.u64("region end");
      state->regions.push_back(std::move(region));
    }
    const std::uint64_t segment_count = reader.u64("segment count");
    // Each segment holds >= 8 bytes of accumulators per cell.
    if (segment_count > 0 && segment_count > reader.remaining() / 8)
      throw std::invalid_argument("truncated: segment count " +
                                  std::to_string(segment_count) +
                                  " exceeds the remaining payload");
    state->segment_trackers.reserve(static_cast<std::size_t>(segment_count));
    for (std::uint64_t i = 0; i < segment_count; ++i)
      state->segment_trackers.push_back(aging::DutyCycleTracker::load(reader));
    if (!reader.exhausted())
      throw std::invalid_argument("trailing garbage after the payload");

    // Invariants the evaluator relies on: every tracker spans the
    // geometry and carries the state's region tags; the tags partition
    // the cells (validated through set_regions).
    for (const aging::DutyCycleTracker& tracker : state->segment_trackers) {
      if (tracker.cell_count() != cells)
        throw std::invalid_argument("tracker cell count disagrees with the "
                                    "geometry");
      if (tracker.regions() != state->regions)
        throw std::invalid_argument("tracker region tags disagree with the "
                                    "entry's region table");
    }
    if (state->segment_trackers.empty() && !state->regions.empty()) {
      aging::DutyCycleTracker probe(static_cast<std::size_t>(cells));
      probe.set_regions(state->regions);  // throws on a bad partition
    }
    return state;
  } catch (const std::exception& error) {
    throw std::invalid_argument(label + ": " + error.what());
  }
}

SimStore::SimStore(Options options) : options_(std::move(options)) {
  if (options_.directory.empty())
    throw std::invalid_argument("sim store: directory path is empty");
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec)
    throw std::invalid_argument("sim store: cannot create directory '" +
                                options_.directory + "': " + ec.message());
  // Probe-write so a read-only or otherwise unusable directory fails at
  // startup with a clear message instead of degrading mid-sweep.
  const std::string probe =
      (fs::path(options_.directory) / (".probe." + unique_suffix())).string();
  std::ofstream file(probe, std::ios::binary | std::ios::trunc);
  file << "probe";
  file.close();
  if (!file) {
    fs::remove(probe, ec);
    throw std::invalid_argument("sim store: directory '" + options_.directory +
                                "' is not writable");
  }
  fs::remove(probe, ec);
}

std::string SimStore::entry_path(const std::string& fingerprint) const {
  DNNLIFE_EXPECTS(is_hex_fingerprint(fingerprint),
                  "sim store fingerprint must be lowercase hex");
  return (fs::path(options_.directory) /
          (fingerprint + std::string(kEntrySuffix)))
      .string();
}

std::string SimStore::unique_suffix() {
  // Process-wide, not per-instance: several SimStore instances may share
  // one directory within a process (e.g. tests modelling multi-shard
  // runs), and colliding tmp names would let one publisher rename — or
  // truncate — another's in-flight file.
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t serial = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return std::to_string(process_tag()) + "." + std::to_string(serial);
}

SimStore::StatePtr SimStore::lookup(const std::string& fingerprint) {
  const std::string path = entry_path(fingerprint);
  std::string bytes;
  try {
    bytes = util::read_file(path);
  } catch (const std::exception&) {
    // Absent entry, or a transient read error that does not prove the
    // entry bad: miss without quarantining.
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return nullptr;
  }
  try {
    StatePtr state = deserialize_simulation_state(bytes, path);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return state;
  } catch (const std::exception&) {
    quarantine(path);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return nullptr;
  }
}

bool SimStore::publish(const std::string& fingerprint,
                       const SimulationState& state) {
  const std::string path = entry_path(fingerprint);
  const std::string tmp = path + ".tmp." + unique_suffix();
  try {
    util::write_file_durable(tmp, path, serialize_simulation_state(state));
  } catch (const std::exception&) {
    // A full or failing disk must not fail the sweep point — the
    // simulation itself succeeded; the store just degrades to
    // pass-through for this entry.
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.publish_failures;
    return false;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.publishes;
  }
  if (options_.capacity_bytes > 0)
    collect_garbage(fingerprint + std::string(kEntrySuffix));
  return true;
}

bool SimStore::contains(const std::string& fingerprint) const {
  std::error_code ec;
  return fs::exists(entry_path(fingerprint), ec);
}

SimStoreStats SimStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void SimStore::quarantine(const std::string& path) {
  std::error_code ec;
  const fs::path source(path);
  const fs::path dir = fs::path(options_.directory) / kQuarantineDir;
  fs::create_directories(dir, ec);
  const fs::path target =
      dir / (source.filename().string() + "." + unique_suffix());
  fs::rename(source, target, ec);
  if (ec) fs::remove(source, ec);  // e.g. quarantine dir not creatable
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.quarantined;
}

void SimStore::collect_garbage(const std::string& keep_filename) {
  struct EntryFile {
    fs::path path;
    std::uintmax_t size = 0;
    fs::file_time_type mtime;
  };
  std::vector<EntryFile> entries;
  std::uintmax_t total = 0;
  std::error_code ec;
  for (fs::directory_iterator it(options_.directory, ec), end;
       !ec && it != end; it.increment(ec)) {
    const fs::path& path = it->path();
    if (path.extension() != kEntrySuffix) continue;
    EntryFile entry;
    entry.path = path;
    entry.size = fs::file_size(path, ec);
    if (ec) continue;  // raced with a sibling's GC
    entry.mtime = fs::last_write_time(path, ec);
    if (ec) continue;
    total += entry.size;
    entries.push_back(std::move(entry));
  }
  if (total <= options_.capacity_bytes) return;
  std::sort(entries.begin(), entries.end(),
            [](const EntryFile& a, const EntryFile& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path.filename() < b.path.filename();
            });
  std::uint64_t evicted = 0;
  for (const EntryFile& entry : entries) {
    if (total <= options_.capacity_bytes) break;
    // Never evict the entry this publish just committed — siblings the
    // scheduler is about to release expect to find it.
    if (entry.path.filename() == keep_filename) continue;
    std::error_code remove_ec;
    if (fs::remove(entry.path, remove_ec) && !remove_ec) ++evicted;
    total -= std::min<std::uintmax_t>(entry.size, total);
  }
  if (evicted > 0) {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.gc_evictions += evicted;
  }
}

}  // namespace dnnlife::core
