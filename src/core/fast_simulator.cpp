#include "core/fast_simulator.hpp"

#include <vector>

#include "core/transducer.hpp"
#include "util/executor.hpp"

namespace dnnlife::core {

namespace {

/// One planned write of the inference, indexed by its stream ordinal; the
/// commit reads its payload words in place through WriteStream::write_at.
/// Kept at 20 bytes — both simulator phases stream millions of these.
struct WriteRecord {
  std::uint32_t row = 0;
  std::uint32_t block = 0;
  std::uint32_t inverted_inferences = 0;   ///< resolved deterministic count
  std::uint32_t local_ordinal = 0;         ///< within-region sampler key
  std::uint8_t rotate = 0;                 ///< planned subword rotation (< 64)
  bool sampled = false;                    ///< resolve via sample_inverted
};

}  // namespace

aging::DutyCycleTracker simulate_fast(const sim::WriteStream& stream,
                                      const RegionPolicyTable& policies,
                                      const FastSimOptions& options) {
  DNNLIFE_EXPECTS(options.inferences >= 1, "need at least one inference");
  const sim::MemoryGeometry geometry = stream.geometry();
  const sim::MemoryRegionMap& region_map = policies.region_map();
  policies.check_stream_geometry(geometry);
  const std::uint32_t blocks = stream.blocks_per_inference();
  const std::uint32_t words_per_row = geometry.words_per_row();
  const unsigned n_inf = options.inferences;

  // Aggregation plans, one per region — a policy without one (e.g. the
  // continuous-counter ablation variants) needs the reference simulator.
  const std::vector<std::unique_ptr<PolicyEngine>> engines =
      policies.make_engines();
  std::vector<std::unique_ptr<AggregatePlan>> plans;
  plans.reserve(engines.size());
  for (std::size_t r = 0; r < engines.size(); ++r) {
    plans.push_back(engines[r]->make_aggregate_plan(n_inf));
    DNNLIFE_EXPECTS(plans.back() != nullptr,
                    "policy '" + policies.policy(r).name() +
                        "' (region '" + region_map.region(r).name +
                        "') supports no aggregation plan and needs the "
                        "reference simulator");
  }

  // Residency durations: prefix[k] = time elapsed before block k starts.
  // Uniform (empty block_durations) degenerates to prefix[k] = k.
  std::vector<std::uint32_t> durations = stream.block_durations();
  DNNLIFE_EXPECTS(durations.empty() || durations.size() == blocks,
                  "one duration per block");
  std::vector<std::uint32_t> prefix(blocks + 1, 0);
  for (std::uint32_t k = 0; k < blocks; ++k) {
    const std::uint32_t d = durations.empty() ? 1u : durations[k];
    DNNLIFE_EXPECTS(d > 0, "durations must be positive");
    prefix[k + 1] = prefix[k] + d;
  }
  const std::uint32_t total_duration = prefix[blocks];
  DNNLIFE_EXPECTS(static_cast<std::uint64_t>(total_duration) * n_inf <
                      (std::uint64_t{1} << 32),
                  "duration x inferences overflows the duty accumulators");

  aging::DutyCycleTracker tracker(geometry.cells());
  tracker.set_regions(policies.cell_regions());

  // ---- Phase 1 (sequential): plan the inference's writes.
  // Policy schedules are stream-order state, so each write is planned here
  // by its region's engine; the expensive duty accumulation is deferred to
  // the row-parallel commit phase. A write's within-region arrival index
  // is its sampler ordinal (one mitigation controller per region).
  const std::uint64_t writes = stream.writes_per_inference();
  std::vector<WriteRecord> records(writes);
  std::vector<std::uint64_t> region_ordinal(plans.size(), 0);
  for (std::uint64_t i = 0; i < writes; ++i) {
    const sim::RowWriteEvent event = stream.write_at(i);
    DNNLIFE_EXPECTS(event.row < geometry.rows, "write row out of range");
    const std::size_t region = region_map.region_of_row(event.row);
    const AggregatePlan::PlannedWrite planned =
        plans[region]->plan_write(region_ordinal[region], event.row);
    DNNLIFE_EXPECTS(planned.rotate < 64, "rotation exceeds the weight word");
    WriteRecord& record = records[i];
    record.row = event.row;
    record.block = event.block;
    record.rotate = static_cast<std::uint8_t>(planned.rotate);
    record.inverted_inferences = planned.inverted_inferences;
    record.local_ordinal =
        static_cast<std::uint32_t>(region_ordinal[region]++);
    record.sampled = planned.sampled;
  }
  for (std::size_t r = 0; r < plans.size(); ++r)
    plans[r]->finalize(region_ordinal[r]);

  // Group write ordinals by row (stable counting sort: per-row lists stay
  // in temporal order).
  std::vector<std::uint32_t> row_start(static_cast<std::size_t>(geometry.rows) + 1, 0);
  for (const WriteRecord& record : records) ++row_start[record.row + 1];
  for (std::uint32_t row = 0; row < geometry.rows; ++row)
    row_start[row + 1] += row_start[row];
  std::vector<std::uint32_t> grouped(records.size());
  {
    std::vector<std::uint32_t> cursor(row_start.begin(), row_start.end() - 1);
    for (std::uint32_t i = 0; i < records.size(); ++i)
      grouped[cursor[records[i].row]++] = i;
  }

  const auto rotators = policies.make_rotators();

  // ---- Phase 2 (parallel over rows): per-row residencies and word-level
  // duty commits. Rows own disjoint cell ranges of the tracker and every
  // per-write quantity is a pure function of the planned records and the
  // words write_at reads in place, so the result is bit-identical for any
  // thread count. options.threads is a concurrency budget on the session
  // executor (one bulk submission, not a transient pool), so many scenarios
  // can run their commit phases concurrently without oversubscribing the
  // machine.
  const auto process_rows = [&](unsigned /*shard*/, std::uint64_t row_begin,
                                std::uint64_t row_end) {
    std::vector<std::uint64_t> rotated(words_per_row);  // per-shard scratch
    for (std::uint64_t row = row_begin; row < row_end; ++row) {
      const std::uint32_t begin = row_start[row];
      const std::uint32_t end = row_start[row + 1];
      if (begin == end) continue;
      const std::size_t region =
          region_map.region_of_row(static_cast<std::uint32_t>(row));
      const AggregatePlan& plan = *plans[region];
      const std::uint32_t first_block = records[grouped[begin]].block;
      for (std::uint32_t j = begin; j < end; ++j) {
        const std::uint32_t ordinal = grouped[j];
        const WriteRecord& record = records[ordinal];
        std::uint32_t residency;
        if (j + 1 < end) {
          const std::uint32_t next_block = records[grouped[j + 1]].block;
          DNNLIFE_EXPECTS(next_block >= record.block,
                          "stream blocks out of order");
          residency = prefix[next_block] - prefix[record.block];
        } else {
          // The row's final write wraps cyclically into the next
          // (identical) inference, holding until its first write.
          residency = total_duration - prefix[record.block] + prefix[first_block];
        }
        if (residency == 0) continue;
        const std::uint32_t c = record.sampled
                                    ? plan.sample_inverted(record.local_ordinal)
                                    : record.inverted_inferences;
        std::span<const std::uint64_t> stored = stream.write_at(ordinal).words;
        if (record.rotate != 0) {
          DNNLIFE_EXPECTS(rotators[region].has_value(),
                          "policy rotated but its weight word does not "
                          "divide the row width");
          rotators[region]->rotate_row_into(stored, record.rotate,
                                            /*left=*/true, rotated);
          stored = rotated;
        }
        // A '1' bit stores '1' in the (n_inf - c) non-inverted inferences;
        // a '0' bit stores '1' in the c inverted ones.
        tracker.accumulate_row(stored, geometry.row_bits,
                               geometry.cell_index(static_cast<std::uint32_t>(row), 0),
                               residency * (n_inf - c), residency * c,
                               residency * n_inf);
      }
    }
  };
  util::parallel_for_shards(geometry.rows, options.threads, process_rows);
  return tracker;
}

aging::DutyCycleTracker simulate_fast(const sim::WriteStream& stream,
                                      const PolicyConfig& policy,
                                      const FastSimOptions& options) {
  return simulate_fast(
      stream, RegionPolicyTable::uniform(stream.geometry(), policy), options);
}

}  // namespace dnnlife::core
