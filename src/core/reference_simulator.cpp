#include "core/reference_simulator.hpp"

#include <algorithm>
#include <vector>

#include "core/metadata_store.hpp"
#include "core/transducer.hpp"
#include "sim/weight_memory.hpp"

namespace dnnlife::core {

namespace {

/// Un-accounted inferences run first so the memory starts in steady state
/// (a row's pre-first-write content is the previous inference's final
/// content, matching the fast simulator's cyclic residency).
constexpr unsigned kWarmupInferences = 1;

}  // namespace

aging::DutyCycleTracker simulate_reference(const sim::WriteStream& stream,
                                           const RegionPolicyTable& policies,
                                           const ReferenceSimOptions& options) {
  DNNLIFE_EXPECTS(options.inferences >= 1, "need at least one inference");
  const sim::MemoryGeometry geometry = stream.geometry();
  const sim::MemoryRegionMap& region_map = policies.region_map();
  policies.check_stream_geometry(geometry);
  const std::uint32_t blocks = stream.blocks_per_inference();
  const std::uint32_t words_per_row = geometry.words_per_row();
  // One inference's writes, identical every inference: replayed by ordinal.
  const std::uint64_t writes = stream.writes_per_inference();

  std::vector<std::uint32_t> durations = stream.block_durations();
  DNNLIFE_EXPECTS(durations.empty() || durations.size() == blocks,
                  "one duration per block");
  std::uint64_t inference_duration = 0;
  for (std::uint32_t k = 0; k < blocks; ++k)
    inference_duration += durations.empty() ? 1u : durations[k];
  DNNLIFE_EXPECTS(inference_duration * options.inferences <
                      (std::uint64_t{1} << 32),
                  "duration x inferences overflows the duty accumulators");

  sim::WeightMemory memory(geometry);
  MetadataStore metadata(geometry.rows);
  const std::vector<std::unique_ptr<PolicyEngine>> engines =
      policies.make_engines();
  const XorTransducer wde(geometry.row_bits);
  const auto rotators = policies.make_rotators();
  // Rotation metadata for the barrel baseline's read path.
  std::vector<unsigned> stored_rotation(geometry.rows, 0);

  aging::DutyCycleTracker tracker(geometry.cells());
  tracker.set_regions(policies.cell_regions());

  // Reused per-write scratch rows (no allocation inside the write loop).
  std::vector<std::uint64_t> stored(words_per_row);
  std::vector<std::uint64_t> decoded(words_per_row);
  std::vector<std::uint64_t> recovered(words_per_row);

  // Duty integration is lazy per row: `content_since[row]` is the
  // accounted residency time at which the row's current content started
  // counting. Content-preserving rewrites just extend the interval; the
  // contribution is committed word-at-a-time only when the stored bits
  // actually change (and once at the very end), instead of re-walking
  // every bit of every written row after every block.
  std::vector<std::uint32_t> content_since(geometry.rows, 0);
  std::uint32_t accounted_time = 0;

  const auto commit_row = [&](std::uint32_t row) {
    const std::uint32_t duration = accounted_time - content_since[row];
    content_since[row] = accounted_time;
    if (duration == 0) return;
    tracker.accumulate_row(memory.read_row(row), geometry.row_bits,
                           geometry.cell_index(row, 0), duration, 0, duration);
  };

  for (unsigned inf = 0; inf < kWarmupInferences + options.inferences; ++inf) {
    const bool accounting = inf >= kWarmupInferences;
    for (const auto& engine : engines) engine->begin_inference();
    std::uint64_t next_write = 0;
    for (std::uint32_t block = 0; block < blocks; ++block) {
      // Apply this block's writes.
      for (; next_write < writes; ++next_write) {
        const sim::RowWriteEvent write = stream.write_at(next_write);
        if (write.block != block) break;
        const std::size_t region = region_map.region_of_row(write.row);
        const WriteAction action = engines[region]->on_write(write.row);
        if (action.rotate != 0) {
          DNNLIFE_ENSURES(rotators[region].has_value(),
                          "policy rotated but its weight word does not "
                          "divide the row width");
          rotators[region]->rotate_row_into(write.words, action.rotate,
                                            /*left=*/true, stored);
        } else {
          std::copy(write.words.begin(), write.words.end(), stored.begin());
        }
        wde.apply(stored, action.invert);
        const bool unchanged =
            memory.row_written(write.row) &&
            std::equal(stored.begin(), stored.end(),
                       memory.read_row(write.row).begin());
        if (!unchanged) {
          if (memory.row_written(write.row))
            commit_row(write.row);
          else
            content_since[write.row] = accounted_time;
          memory.write_row(write.row, stored);
        }
        metadata.record_write(write.row, action.invert);
        stored_rotation[write.row] = action.rotate;
        if (options.verify_decode) {
          // RDD path: undo inversion via metadata, then undo rotation.
          const auto raw = memory.read_row(write.row);
          std::copy(raw.begin(), raw.end(), decoded.begin());
          wde.apply(decoded, metadata.enable_of(write.row));
          std::span<const std::uint64_t> result(decoded);
          if (stored_rotation[write.row] != 0) {
            rotators[region]->rotate_row_into(decoded,
                                              stored_rotation[write.row],
                                              /*left=*/false, recovered);
            result = recovered;
          }
          DNNLIFE_ENSURES(
              std::equal(result.begin(), result.end(), write.words.begin()),
              "RDD failed to recover the written row");
        }
      }
      // One residency slot (weighted by the block's duration) for the
      // current memory contents — accrued lazily via content_since.
      if (accounting)
        accounted_time += durations.empty() ? 1u : durations[block];
    }
    DNNLIFE_ENSURES(next_write == writes,
                    "write blocks out of order in stream");
  }
  for (std::uint32_t row = 0; row < geometry.rows; ++row)
    if (memory.row_written(row)) commit_row(row);
  return tracker;
}

aging::DutyCycleTracker simulate_reference(const sim::WriteStream& stream,
                                           const PolicyConfig& policy,
                                           const ReferenceSimOptions& options) {
  return simulate_reference(
      stream, RegionPolicyTable::uniform(stream.geometry(), policy), options);
}

}  // namespace dnnlife::core
