// Multi-DNN workload schedules (extension).
//
// The paper evaluates each network "individually" and assumes a single
// DNN is used for the whole device lifetime. Real deployments interleave
// models on the same accelerator; the lifetime duty-cycle of a cell is
// then the time-weighted union of the phases. This module composes
// per-phase simulations over a shared weight memory, with one
// region → policy table applied across all phases.
#pragma once

#include <span>

#include "aging/duty_cycle.hpp"
#include "core/region_policy.hpp"
#include "sim/write_stream.hpp"

namespace dnnlife::core {

/// One phase of the device lifetime: a network/accelerator write stream
/// run for a number of inferences in an operating environment. A phase
/// with zero inferences is skipped (it contributes no residency time).
struct WorkloadPhase {
  WorkloadPhase() = default;
  WorkloadPhase(const sim::WriteStream* stream, unsigned inferences,
                aging::EnvironmentSpec environment = {})
      : stream(stream), inferences(inferences), environment(environment) {}

  const sim::WriteStream* stream = nullptr;  // non-owning
  unsigned inferences = 100;
  /// Operating conditions during the phase (temperature / vdd / activity);
  /// default = the nominal calibration point.
  aging::EnvironmentSpec environment;
};

struct WorkloadOptions {
  /// Worker threads per phase (see FastSimOptions::threads; ignored on the
  /// reference path). Results are bit-identical either way.
  unsigned threads = 1;
  /// Replay every phase through the literal reference simulator instead of
  /// the aggregated fast path (small configs / validation).
  bool use_reference_simulator = false;
};

/// Simulate the phases in order on the same physical memory (all streams
/// must share the memory geometry) into one duty-cycle tracker per
/// environment segment, a run of consecutive active phases with equal
/// environments, and nothing else. Dormant phases neither start nor split
/// a segment, so an all-dormant workload has none. Phase p derives its
/// policy randomness from its index (the hardware controller keeps running
/// across phases; a sub-seed per phase is statistically equivalent). Each
/// tracker carries the table's region tags. Throws before simulating when
/// the summed residency of all phases overflows the uint32 accumulators.
std::vector<aging::EnvironmentSegment> simulate_workload_segments(
    std::span<const WorkloadPhase> phases, const RegionPolicyTable& policies,
    const WorkloadOptions& options = {});

/// The merge of simulate_workload_segments' trackers (all-unused when
/// every phase is dormant).
aging::DutyCycleTracker simulate_workload(std::span<const WorkloadPhase> phases,
                                          const RegionPolicyTable& policies,
                                          const WorkloadOptions& options = {});

/// Whole-memory convenience wrapper (uniform region).
aging::DutyCycleTracker simulate_workload(std::span<const WorkloadPhase> phases,
                                          const PolicyConfig& policy);

/// simulate_workload_segments' segments plus `combined`, their merge: a
/// second full per-cell tracker kept for direct callers that want the
/// single-operating-point view next to the segments (run_scenario does not
/// build it). `combined` is valid even when `segments` is empty.
struct PhasedWorkloadResult {
  std::vector<aging::EnvironmentSegment> segments;
  aging::DutyCycleTracker combined;
};

PhasedWorkloadResult simulate_workload_phased(
    std::span<const WorkloadPhase> phases, const RegionPolicyTable& policies,
    const WorkloadOptions& options = {});

}  // namespace dnnlife::core
