// Aging-mitigation policies compared in the paper's evaluation (Sec. V-B),
// by their PolicyConfig::kind (core::PolicyRegistry) names:
//
//  "no-mitigation"  — weights stored as-is.
//  "inversion"      — [19]-style periodic inversion: every other write to a
//                     location is inverted. The inversion phase is driven by
//                     the dataflow schedule, which restarts every inference,
//                     so a given datum always arrives with the same phase —
//                     exactly the "same data periodically reused" failure
//                     mode the paper describes. A `continuous_counter`
//                     variant (never reset) is kept as an ablation.
//  "barrel-shifter" — [15]-style bit rotation: each weight subword is
//                     rotated by (per-location write index mod weight_bits).
//                     Balances bit positions but cannot fix a biased average
//                     '1'-probability (paper observation 3).
//  "dnn-life"       — the proposed scheme: E drawn from a TRBG through the
//                     aging controller (optional bias balancing), fresh on
//                     every write, never reset — randomness accumulates
//                     across inferences, growing the effective K.
//
// This header holds the declarative side only (config + validation); the
// behavioural strategy objects live behind the PolicyEngine interface in
// core/policy_engine.hpp, where extensions register further names.
#pragma once

#include <cstdint>
#include <string>

namespace dnnlife::core {

struct PolicyConfig {
  /// The policy's PolicyRegistry name: a built-in above, or a custom
  /// engine registered under its own name. The remaining fields are
  /// passed to the engine's factory verbatim.
  std::string kind = "no-mitigation";

  /// Barrel shifter: rotation granularity (the weight word width).
  unsigned weight_bits = 8;

  /// Inversion/barrel: reset per-location counters at inference boundaries
  /// (the schedule-driven hardware realisation; see header comment).
  bool reset_each_inference = true;

  /// DNN-Life: TRBG '1'-probability.
  double trbg_bias = 0.5;
  /// DNN-Life: enable the M-bit bias-balancing register.
  bool bias_balancing = true;
  /// DNN-Life: M (the paper evaluates M = 4).
  unsigned balancer_bits = 4;
  std::uint64_t seed = 0xd00dfeedULL;

  /// Human-readable label used by benches/reports.
  std::string name() const;

  static PolicyConfig none();
  static PolicyConfig inversion();
  static PolicyConfig barrel_shifter(unsigned weight_bits);
  static PolicyConfig dnn_life(double trbg_bias = 0.5, bool bias_balancing = true,
                               unsigned balancer_bits = 4,
                               std::uint64_t seed = 0xd00dfeedULL);
};

/// Up-front validation with actionable messages that start with the
/// policy's kind, instead of failing deep inside a simulator: weight_bits
/// must be 1..64 and (for the barrel shifter, which rotates whole rows)
/// divide the row width; a DNN-Life trbg_bias must be a probability;
/// balancer_bits must fit the hardware register. `row_bits` of 0 skips the
/// geometry-dependent checks (no memory bound yet). Does not check that
/// `kind` is registered (make_policy_engine and parse_policy do). Throws
/// std::invalid_argument.
void validate_policy_config(const PolicyConfig& config,
                            std::uint32_t row_bits = 0);

/// What a policy does to one row write.
struct WriteAction {
  bool invert = false;    ///< XOR the row with all-ones (E = 1)
  unsigned rotate = 0;    ///< left-rotate each weight subword by this amount
};

}  // namespace dnnlife::core
