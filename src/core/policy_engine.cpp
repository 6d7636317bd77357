#include "core/policy_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/aging_controller.hpp"
#include "core/bias_balancer.hpp"
#include "core/trbg.hpp"
#include "util/bitops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dnnlife::core {

std::uint32_t sample_binomial(util::Xoshiro256ss& rng, std::uint32_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p == 0.5) {
    // Exact: popcount of n fair bits.
    std::uint32_t count = 0;
    std::uint32_t remaining = n;
    while (remaining >= 64) {
      count += util::popcount(rng.next());
      remaining -= 64;
    }
    if (remaining > 0)
      count += util::popcount(rng.next() & util::low_mask(remaining));
    return count;
  }
  const double variance = static_cast<double>(n) * p * (1.0 - p);
  if (variance >= 9.0) {
    // Normal approximation with continuity correction.
    const double mean = static_cast<double>(n) * p;
    const double draw = std::round(mean + std::sqrt(variance) * rng.next_gaussian());
    if (draw < 0.0) return 0;
    if (draw > static_cast<double>(n)) return n;
    return static_cast<std::uint32_t>(draw);
  }
  std::uint32_t count = 0;
  for (std::uint32_t i = 0; i < n; ++i)
    count += rng.next_double() < p ? 1u : 0u;
  return count;
}

void AggregatePlan::finalize(std::uint64_t /*writes_per_inference*/) {}

std::uint32_t AggregatePlan::sample_inverted(std::uint64_t /*ordinal*/) const {
  throw std::logic_error("this aggregation plan has no sampled writes");
}

namespace {

// ---- no-mitigation -----------------------------------------------------------

class NullPlan final : public AggregatePlan {
 public:
  PlannedWrite plan_write(std::uint64_t, std::uint32_t) override { return {}; }
};

class NoneEngine final : public PolicyEngine {
 public:
  explicit NoneEngine(const PolicyConfig& config) : config_(config) {}

  const PolicyConfig& config() const noexcept override { return config_; }
  void begin_inference() override {}
  WriteAction on_write(std::uint32_t) override { return {}; }
  std::unique_ptr<AggregatePlan> make_aggregate_plan(unsigned) const override {
    return std::make_unique<NullPlan>();
  }

 private:
  PolicyConfig config_;
};

// ---- deterministic per-row-counter schedules (inversion / barrel) ------------

/// Shared state of the schedule-driven baselines: one write counter per
/// row of the engine's region, optionally reset at inference boundaries.
class CounterEngine : public PolicyEngine {
 public:
  CounterEngine(const PolicyConfig& config, const sim::MemoryRegion& region)
      : config_(config), row_begin_(region.row_begin),
        row_write_counts_(region.rows(), 0) {}

  const PolicyConfig& config() const noexcept override { return config_; }

  void begin_inference() override {
    if (config_.reset_each_inference)
      std::fill(row_write_counts_.begin(), row_write_counts_.end(), 0u);
  }

 protected:
  std::uint32_t next_count(std::uint32_t row) {
    DNNLIFE_EXPECTS(row >= row_begin_ &&
                        row - row_begin_ < row_write_counts_.size(),
                    "row outside the engine's region");
    return row_write_counts_[row - row_begin_]++;
  }

  /// Aggregation replays one inference's schedule with fresh counters —
  /// only valid when the hardware resets them each inference (the
  /// continuous-counter ablation needs the reference simulator).
  bool aggregatable() const noexcept { return config_.reset_each_inference; }

  PolicyConfig config_;

 private:
  std::uint32_t row_begin_;
  std::vector<std::uint32_t> row_write_counts_;
};

class InversionPlan final : public AggregatePlan {
 public:
  InversionPlan(const sim::MemoryRegion& region, unsigned inferences)
      : counts_(region.rows(), 0), row_begin_(region.row_begin),
        inferences_(inferences) {}

  // Caller (the fast simulator's planning phase) has already
  // routed the write to this region's plan; this is a per-write hot loop.
  PlannedWrite plan_write(std::uint64_t, std::uint32_t row) override {
    PlannedWrite planned;
    planned.inverted_inferences =
        (counts_[row - row_begin_]++ & 1u) != 0 ? inferences_ : 0;
    return planned;
  }

 private:
  std::vector<std::uint32_t> counts_;
  std::uint32_t row_begin_;
  unsigned inferences_;
};

class InversionEngine final : public CounterEngine {
 public:
  InversionEngine(const PolicyConfig& config, const sim::MemoryRegion& region)
      : CounterEngine(config, region), region_(region) {}

  WriteAction on_write(std::uint32_t row) override {
    WriteAction action;
    action.invert = (next_count(row) & 1u) != 0;
    return action;
  }

  std::unique_ptr<AggregatePlan> make_aggregate_plan(
      unsigned inferences) const override {
    if (!aggregatable()) return nullptr;
    return std::make_unique<InversionPlan>(region_, inferences);
  }

 private:
  sim::MemoryRegion region_;
};

class BarrelPlan final : public AggregatePlan {
 public:
  BarrelPlan(const sim::MemoryRegion& region, unsigned weight_bits)
      : counts_(region.rows(), 0), row_begin_(region.row_begin),
        weight_bits_(weight_bits) {}

  // See InversionPlan::plan_write: the row is pre-routed by the caller.
  PlannedWrite plan_write(std::uint64_t, std::uint32_t row) override {
    PlannedWrite planned;
    planned.rotate = counts_[row - row_begin_]++ % weight_bits_;
    return planned;
  }

 private:
  std::vector<std::uint32_t> counts_;
  std::uint32_t row_begin_;
  unsigned weight_bits_;
};

class BarrelEngine final : public CounterEngine {
 public:
  BarrelEngine(const PolicyConfig& config, const sim::MemoryRegion& region)
      : CounterEngine(config, region), region_(region) {}

  WriteAction on_write(std::uint32_t row) override {
    WriteAction action;
    action.rotate = next_count(row) % config_.weight_bits;
    return action;
  }

  std::unique_ptr<AggregatePlan> make_aggregate_plan(
      unsigned /*inferences*/) const override {
    if (!aggregatable()) return nullptr;
    return std::make_unique<BarrelPlan>(region_, config_.weight_bits);
  }

 private:
  sim::MemoryRegion region_;
};

// ---- DNN-Life ----------------------------------------------------------------

/// Aggregated DNN-Life: the inverted-inference count of the write with
/// within-inference ordinal `o` is a sum of N independent Bernoulli draws
/// whose phase-dependent probabilities follow the bias balancer's hardware
/// schedule (global write index i*W + o), sampled as at most two binomials.
/// The per-write RNG stream is derived from (seed, ordinal), never shared,
/// so any evaluation order draws bit-identical values.
class DnnLifePlan final : public AggregatePlan {
 public:
  DnnLifePlan(const PolicyConfig& config, unsigned inferences)
      : config_(config), inferences_(inferences),
        base_seed_(util::derive_seed(config.seed, 0x5a5aULL)) {}

  PlannedWrite plan_write(std::uint64_t, std::uint32_t) override {
    PlannedWrite planned;
    planned.sampled = true;
    return planned;
  }

  void finalize(std::uint64_t writes_per_inference) override {
    writes_per_inference_ = writes_per_inference;
  }

  std::uint32_t sample_inverted(std::uint64_t ordinal) const override {
    util::Xoshiro256ss rng(util::derive_seed(base_seed_, ordinal));
    const double p = config_.trbg_bias;
    if (!config_.bias_balancing)
      return sample_binomial(rng, inferences_, p);
    // The balancer phase at global write index i*W + ordinal is
    // ((idx >> M) & 1); phase 1 inverts the TRBG output. The phase-1
    // population over the arithmetic progression is counted closed-form
    // (Euclidean floor-sum over the period-2^(M+1) schedule) instead of
    // looping over all N inferences per write.
    const auto phase_one = static_cast<std::uint32_t>(
        BiasBalancer::count_phase_one(ordinal, writes_per_inference_,
                                      inferences_, config_.balancer_bits));
    const std::uint32_t phase_zero = inferences_ - phase_one;
    return sample_binomial(rng, phase_zero, p) +
           sample_binomial(rng, phase_one, 1.0 - p);
  }

 private:
  PolicyConfig config_;
  unsigned inferences_;
  std::uint64_t writes_per_inference_ = 0;
  std::uint64_t base_seed_;
};

class DnnLifeEngine final : public PolicyEngine {
 public:
  explicit DnnLifeEngine(const PolicyConfig& config)
      : config_(config), trbg_(config.trbg_bias, config.seed),
        controller_(trbg_, AgingControllerConfig{config.bias_balancing,
                                                 config.balancer_bits}) {}

  const PolicyConfig& config() const noexcept override { return config_; }

  void begin_inference() override {
    // Deliberately empty: the controller's randomness accumulates across
    // inferences — that is the scheme's whole point.
  }

  WriteAction on_write(std::uint32_t) override {
    WriteAction action;
    action.invert = controller_.next_enable();
    return action;
  }

  std::unique_ptr<AggregatePlan> make_aggregate_plan(
      unsigned inferences) const override {
    return std::make_unique<DnnLifePlan>(config_, inferences);
  }

 private:
  PolicyConfig config_;
  BiasedTrbg trbg_;
  AgingController controller_;
};

// ---- registry ----------------------------------------------------------------

/// The paper's four policies, pre-registered under their PolicyConfig::kind
/// names.
PolicyRegistry::Entries builtin_engines() {
  return {{"no-mitigation",
           [](const PolicyConfig& config, const sim::MemoryGeometry&,
              const sim::MemoryRegion&) {
             return std::make_unique<NoneEngine>(config);
           }},
          {"inversion",
           [](const PolicyConfig& config, const sim::MemoryGeometry&,
              const sim::MemoryRegion& region) {
             return std::make_unique<InversionEngine>(config, region);
           }},
          {"barrel-shifter",
           [](const PolicyConfig& config, const sim::MemoryGeometry&,
              const sim::MemoryRegion& region) {
             return std::make_unique<BarrelEngine>(config, region);
           }},
          {"dnn-life",
           [](const PolicyConfig& config, const sim::MemoryGeometry&,
              const sim::MemoryRegion&) {
             return std::make_unique<DnnLifeEngine>(config);
           }}};
}

}  // namespace

std::unique_ptr<PolicyEngine> make_policy_engine(
    const PolicyConfig& config, const sim::MemoryGeometry& geometry,
    const sim::MemoryRegion& region) {
  geometry.validate();
  DNNLIFE_EXPECTS(region.row_begin < region.row_end &&
                      region.row_end <= geometry.rows,
                  "engine region outside the memory");
  const PolicyEngineFactory factory = PolicyRegistry::instance().at(config.kind);
  validate_policy_config(config, geometry.row_bits);
  auto engine = factory(config, geometry, region);
  DNNLIFE_ENSURES(engine != nullptr,
                  "policy factory '" + config.kind + "' returned null");
  return engine;
}

std::unique_ptr<PolicyEngine> make_policy_engine(
    const PolicyConfig& config, const sim::MemoryGeometry& geometry) {
  return make_policy_engine(config, geometry,
                            sim::MemoryRegion{"memory", 0, geometry.rows});
}

}  // namespace dnnlife::core

namespace dnnlife::util {

template <>
core::PolicyRegistry& core::PolicyRegistry::instance() {
  static core::PolicyRegistry registry("policy engine",
                                       core::builtin_engines());
  return registry;
}

}  // namespace dnnlife::util
