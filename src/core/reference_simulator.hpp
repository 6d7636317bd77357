// Reference (literal) aging simulator.
//
// Replays every write of every inference through the behavioural WDE/RDD
// transducers, a functional SRAM model and the metadata store, then
// integrates duty-cycle block-by-block. Each inference re-reads the
// stream's writes by ordinal (WriteStream::write_at); nothing of the
// stream is copied. O(cells * K * inferences) — used for small
// configurations and as the oracle the fast simulator is validated
// against. Optionally verifies on every write that the RDD recovers the
// original row from the stored data plus metadata.
//
// Policies are consumed through the PolicyEngine abstraction: every write
// is routed to the engine of the region owning its row (a uniform
// RegionPolicyTable reproduces the whole-memory-one-policy setup).
#pragma once

#include "aging/duty_cycle.hpp"
#include "core/region_policy.hpp"
#include "sim/write_stream.hpp"

namespace dnnlife::core {

struct ReferenceSimOptions {
  /// Accounted inferences, after one un-accounted warm-up inference that
  /// brings the memory to steady state.
  unsigned inferences = 100;
  /// Check RDD(WDE(x)) == x on every write.
  bool verify_decode = true;
};

/// Region-aware replay: each write is handled by its region's engine. The
/// returned tracker carries the table's region tags.
aging::DutyCycleTracker simulate_reference(const sim::WriteStream& stream,
                                           const RegionPolicyTable& policies,
                                           const ReferenceSimOptions& options);

/// Whole-memory convenience wrapper (uniform region).
aging::DutyCycleTracker simulate_reference(const sim::WriteStream& stream,
                                           const PolicyConfig& policy,
                                           const ReferenceSimOptions& options);

}  // namespace dnnlife::core
