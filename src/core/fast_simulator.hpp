// Fast aging simulator.
//
// A naive replay of N inferences x K mappings x millions of cells is
// O(10^11) bit operations for the paper's large configurations. This
// simulator exploits two structural facts:
//
//  1. The write stream is identical every inference, so the per-cell duty
//     contribution of one write can be aggregated across inferences: for a
//     write whose row is inverted in c of the N inferences and resident for
//     `res` mapping slots, a stored '1' bit contributes res*(N - c) slots
//     of ones-time and a '0' bit contributes res*c.
//  2. How c is obtained is the policy's business, abstracted behind
//     PolicyEngine::make_aggregate_plan (see core/policy_engine.hpp): the
//     XOR-family policies resolve it exactly during stream-order planning
//     (0, N, or the schedule parity); DNN-Life defers it to a pure
//     per-ordinal sampler (at most two binomials following the bias
//     balancer's hardware schedule) evaluated in the parallel commit.
//
// Residency is steady-state cyclic: a write at block k holds until the
// next write to the same row, wrapping into the next (identical)
// inference. One O(cells x K) pass total, split into a sequential planning
// phase (one small record per write of one inference, grouped by row) and
// a row-parallel word-level commit phase that reads each write's payload
// in place through WriteStream::write_at; no copy of the inference's
// payloads is made. Every per-write random draw is a pure function of
// (seed, region-local write ordinal), so results are bit-identical for any
// FastSimOptions::threads value.
//
// Policies whose engine returns no aggregation plan (e.g. the
// continuous-counter ablation variants) need the reference simulator.
#pragma once

#include "aging/duty_cycle.hpp"
#include "core/region_policy.hpp"
#include "sim/write_stream.hpp"

namespace dnnlife::core {

struct FastSimOptions {
  unsigned inferences = 100;
  /// Worker threads for the commit phase (rows are sharded contiguously).
  /// 1 runs inline; 0 means std::thread::hardware_concurrency(). The duty
  /// cycles produced are bit-identical regardless of this value.
  unsigned threads = 1;
};

/// Region-aware aggregation: each write is planned by the engine of the
/// region owning its row; each region observes its own within-inference
/// write ordinals (a per-region mitigation controller). The returned
/// tracker carries the table's region tags.
aging::DutyCycleTracker simulate_fast(const sim::WriteStream& stream,
                                      const RegionPolicyTable& policies,
                                      const FastSimOptions& options);

/// Whole-memory convenience wrapper (uniform region).
aging::DutyCycleTracker simulate_fast(const sim::WriteStream& stream,
                                      const PolicyConfig& policy,
                                      const FastSimOptions& options);

}  // namespace dnnlife::core
