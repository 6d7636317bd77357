#include "core/workload.hpp"

#include <algorithm>
#include <numeric>

#include "core/fast_simulator.hpp"
#include "core/reference_simulator.hpp"

namespace dnnlife::core {

namespace {

/// One phase's tracker, with randomness derived from the phase's position
/// in the workload (identical for the merged and the phased paths).
aging::DutyCycleTracker simulate_phase(const WorkloadPhase& phase,
                                       const RegionPolicyTable& policies,
                                       const WorkloadOptions& options,
                                       std::size_t phase_index) {
  const RegionPolicyTable phase_policies =
      policies.with_derived_seeds(phase_index + 1);
  if (options.use_reference_simulator) {
    ReferenceSimOptions reference;
    reference.inferences = phase.inferences;
    reference.verify_decode = false;
    return simulate_reference(*phase.stream, phase_policies, reference);
  }
  FastSimOptions fast;
  fast.inferences = phase.inferences;
  fast.threads = options.threads;
  return simulate_fast(*phase.stream, phase_policies, fast);
}

void check_phases(std::span<const WorkloadPhase> phases,
                  const sim::MemoryGeometry& geometry) {
  DNNLIFE_EXPECTS(!phases.empty(), "workload needs at least one phase");
  // Every active phase adds its residency to the same per-cell uint32
  // accumulators (merged within a segment, summed across segments by
  // aging::gather_cell_segments), so bound the whole workload's sum, not
  // each phase's: a per-phase bound lets the sum wrap silently.
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 32;
  std::uint64_t residency = 0;  // < kLimit between phases: no u64 wrap
  for (const WorkloadPhase& phase : phases) {
    DNNLIFE_EXPECTS(phase.stream != nullptr, "phase without stream");
    DNNLIFE_EXPECTS(phase.stream->geometry().rows == geometry.rows &&
                        phase.stream->geometry().row_bits == geometry.row_bits,
                    "phases must share the memory geometry");
    aging::validate_environment(phase.environment);
    const std::vector<std::uint32_t> durations =
        phase.stream->block_durations();
    const std::uint64_t duration =
        durations.empty()
            ? phase.stream->blocks_per_inference()
            : std::accumulate(durations.begin(), durations.end(),
                              std::uint64_t{0});
    residency += std::min(duration, kLimit) * phase.inferences;
    DNNLIFE_EXPECTS(residency < kLimit,
                    "duration x inferences overflows the duty accumulators");
  }
}

}  // namespace

std::vector<aging::EnvironmentSegment> simulate_workload_segments(
    std::span<const WorkloadPhase> phases, const RegionPolicyTable& policies,
    const WorkloadOptions& options) {
  check_phases(phases, policies.geometry());
  std::vector<aging::EnvironmentSegment> segments;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    if (phases[p].inferences == 0) continue;  // a dormant phase ages nothing
    aging::DutyCycleTracker tracker =
        simulate_phase(phases[p], policies, options, p);
    // Consecutive active phases in the same environment share a segment:
    // duty-cycle time-averages within one operating point (the paper's
    // long-term-average model), so an all-nominal workload stays a single
    // segment and evaluates bit-identically to the merged view.
    if (!segments.empty() && segments.back().environment == phases[p].environment)
      segments.back().tracker.merge(tracker);
    else
      segments.push_back({std::move(tracker), phases[p].environment});
  }
  return segments;
}

aging::DutyCycleTracker simulate_workload(std::span<const WorkloadPhase> phases,
                                          const RegionPolicyTable& policies,
                                          const WorkloadOptions& options) {
  return simulate_workload_phased(phases, policies, options).combined;
}

aging::DutyCycleTracker simulate_workload(std::span<const WorkloadPhase> phases,
                                          const PolicyConfig& policy) {
  DNNLIFE_EXPECTS(!phases.empty() && phases.front().stream != nullptr,
                  "workload needs at least one phase");
  return simulate_workload(
      phases,
      RegionPolicyTable::uniform(phases.front().stream->geometry(), policy));
}

PhasedWorkloadResult simulate_workload_phased(
    std::span<const WorkloadPhase> phases, const RegionPolicyTable& policies,
    const WorkloadOptions& options) {
  PhasedWorkloadResult result{
      simulate_workload_segments(phases, policies, options),
      aging::DutyCycleTracker(policies.geometry().cells())};
  // Wrapping uint32 adds: merging the segments equals merging every phase.
  result.combined.set_regions(policies.cell_regions());
  for (const aging::EnvironmentSegment& segment : result.segments)
    result.combined.merge(segment.tracker);
  return result;
}

}  // namespace dnnlife::core
