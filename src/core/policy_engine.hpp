// The first-class policy-engine abstraction. A PolicyEngine owns both
// execution styles of one mitigation policy:
//
//  * the stateful per-write replay the reference simulator drives
//    (begin_inference / on_write), and
//  * the aggregated closed-form/arithmetic path the fast simulator drives,
//    exposed as a capability query (make_aggregate_plan returns nullptr for
//    policies that only support literal replay, e.g. the continuous-counter
//    ablation variants).
//
// Engines are created by PolicyConfig::kind through the name-based
// PolicyRegistry, so external policies plug in without touching either
// simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/mitigation_policy.hpp"
#include "sim/memory_geometry.hpp"
#include "sim/region_map.hpp"
#include "util/registry.hpp"
#include "util/rng.hpp"

namespace dnnlife::core {

/// One simulation run's aggregation plan: how a policy's per-write actions
/// distribute over N identical inferences (see fast_simulator.hpp for the
/// aggregation model). The fast simulator drives it in three steps:
///
///  1. plan_write(ordinal, row) once per write, in temporal stream order
///     (sequential — stateful per-row counters are allowed here). `ordinal`
///     is the write's arrival index within the plan's region and inference.
///  2. finalize(writes_per_inference) once, after the full inference has
///     been planned (samplers that need the schedule period, e.g. the bias
///     balancer's global write index, latch it here).
///  3. sample_inverted(ordinal) from the row-parallel commit phase for
///     every write planned with `sampled = true`. Must be a pure function
///     of (plan, ordinal) — it is called concurrently and the result must
///     not depend on evaluation order (that is what keeps the fast
///     simulator bit-identical for any thread count).
class AggregatePlan {
 public:
  struct PlannedWrite {
    std::uint32_t rotate = 0;  ///< subword left-rotation (constant over inferences)
    /// Count c of the N inferences that store the row inverted, already
    /// resolved for deterministic schedules. Ignored when `sampled`.
    std::uint32_t inverted_inferences = 0;
    /// True when c must instead be drawn in the commit phase via
    /// sample_inverted(ordinal).
    bool sampled = false;
  };

  virtual ~AggregatePlan() = default;

  virtual PlannedWrite plan_write(std::uint64_t ordinal, std::uint32_t row) = 0;

  /// Called once between planning and sampling with the number of writes
  /// the plan saw per inference. Default: no-op.
  virtual void finalize(std::uint64_t writes_per_inference);

  /// Thread-safe sampled inverted-inference count for a deferred write.
  /// Default: throws std::logic_error (plans that never defer).
  virtual std::uint32_t sample_inverted(std::uint64_t ordinal) const;
};

/// Strategy interface for one mitigation policy bound to one memory
/// (geometry fixed at construction).
class PolicyEngine {
 public:
  virtual ~PolicyEngine() = default;

  virtual const PolicyConfig& config() const noexcept = 0;

  /// Signal an inference boundary (resets schedule-driven counters).
  virtual void begin_inference() = 0;

  /// The action for the next write to `row` (advances internal state).
  virtual WriteAction on_write(std::uint32_t row) = 0;

  /// Capability query: an aggregation plan over `inferences` identical
  /// inferences, or nullptr when the policy only supports literal replay.
  virtual std::unique_ptr<AggregatePlan> make_aggregate_plan(
      unsigned inferences) const = 0;
};

/// Engine factory: builds one policy engine for the given memory and the
/// row region the engine will own (per-row state need only cover the
/// region's rows; a whole-memory engine gets the full row range).
using PolicyEngineFactory = std::function<std::unique_ptr<PolicyEngine>(
    const PolicyConfig&, const sim::MemoryGeometry&, const sim::MemoryRegion&)>;

/// Name-based policy-engine registry. The four built-in policies are
/// registered as "no-mitigation", "inversion", "barrel-shifter" and
/// "dnn-life"; extensions add factories under new names. Thread-safe.
using PolicyRegistry = util::Registry<PolicyEngineFactory>;

/// Validate `config` against `geometry` and create its engine through the
/// registry entry named `config.kind`.
/// `region` is the row range the engine owns; the two-argument overload
/// binds the whole memory.
std::unique_ptr<PolicyEngine> make_policy_engine(
    const PolicyConfig& config, const sim::MemoryGeometry& geometry,
    const sim::MemoryRegion& region);
std::unique_ptr<PolicyEngine> make_policy_engine(
    const PolicyConfig& config, const sim::MemoryGeometry& geometry);

/// Internal helper, exposed for tests/benches: draw Binomial(n, p)
/// deterministically from `rng` (exact popcount path at p = 0.5, exact
/// loop for small variance, normal approximation otherwise). Used by the
/// DNN-Life aggregation plan.
std::uint32_t sample_binomial(util::Xoshiro256ss& rng, std::uint32_t n,
                              double p);

}  // namespace dnnlife::core

namespace dnnlife::util {
/// Defined in policy_engine.cpp with the four built-in engines.
template <>
core::PolicyRegistry& core::PolicyRegistry::instance();
}  // namespace dnnlife::util
