// Tests for the policy-engine registry, up-front config validation, and
// the capability/aggregation interface.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/fast_simulator.hpp"
#include "core/policy_engine.hpp"
#include "core/reference_simulator.hpp"
#include "sim/write_stream.hpp"

namespace dnnlife::core {
namespace {

constexpr const char* kBuiltinPolicies[] = {"no-mitigation", "inversion",
                                            "barrel-shifter", "dnn-life"};

TEST(PolicyRegistry, BuiltinsAreRegistered) {
  auto& registry = PolicyRegistry::instance();
  const auto names = registry.names();
  for (const std::string kind : kBuiltinPolicies) {
    EXPECT_TRUE(registry.contains(kind));
    EXPECT_NE(std::find(names.begin(), names.end(), kind), names.end());
  }
  EXPECT_FALSE(registry.contains("no-such-policy"));
  for (const std::string kind : {"no-such-policy", "rot13", ""}) {
    PolicyConfig unknown;
    unknown.kind = kind;
    EXPECT_THROW(make_policy_engine(unknown, sim::MemoryGeometry{1, 64}),
                 std::invalid_argument)
        << kind;
  }
}

TEST(PolicyRegistry, RejectsDuplicateAndBadFactories) {
  auto& registry = PolicyRegistry::instance();
  EXPECT_THROW(registry.add("no-mitigation", nullptr), std::invalid_argument);
  EXPECT_THROW(
      registry.add("dnn-life",
                   [](const PolicyConfig&, const sim::MemoryGeometry&,
                      const sim::MemoryRegion&)
                       -> std::unique_ptr<PolicyEngine> { return nullptr; }),
      std::invalid_argument);
  EXPECT_THROW(registry.add("", nullptr), std::invalid_argument);
}

/// A minimal external policy: invert every write, no aggregation support.
class AlwaysInvertEngine final : public PolicyEngine {
 public:
  explicit AlwaysInvertEngine(const PolicyConfig& config) : config_(config) {}
  const PolicyConfig& config() const noexcept override { return config_; }
  void begin_inference() override {}
  WriteAction on_write(std::uint32_t) override {
    WriteAction action;
    action.invert = true;
    return action;
  }
  std::unique_ptr<AggregatePlan> make_aggregate_plan(unsigned) const override {
    return nullptr;
  }

 private:
  PolicyConfig config_;
};

void register_always_invert() {
  auto& registry = PolicyRegistry::instance();
  if (registry.contains("test-always-invert")) return;
  registry.add("test-always-invert",
               [](const PolicyConfig& config, const sim::MemoryGeometry&,
                  const sim::MemoryRegion&) {
                 return std::make_unique<AlwaysInvertEngine>(config);
               });
}

TEST(PolicyRegistry, ExternalPolicyPlugsIn) {
  register_always_invert();
  PolicyConfig custom;
  custom.kind = "test-always-invert";
  const auto engine = make_policy_engine(custom, sim::MemoryGeometry{4, 64},
                                         sim::MemoryRegion{"memory", 0, 4});
  EXPECT_TRUE(engine->on_write(0).invert);
  EXPECT_EQ(engine->make_aggregate_plan(10), nullptr);
}

TEST(PolicyRegistry, ExternalPolicyReachableThroughSimulators) {
  // PolicyConfig::kind routes every layer (tables, simulators) to the
  // registered factory — no simulator edits needed for a new policy.
  register_always_invert();
  PolicyConfig custom;
  custom.kind = "test-always-invert";
  EXPECT_EQ(custom.name(), "test-always-invert");
  sim::VectorWriteStream stream(sim::MemoryGeometry{1, 64}, 1);
  stream.add_write(0, 0, {~0ULL});
  // Every write inverted: the all-ones payload is stored as all zeros.
  const auto tracker = simulate_reference(stream, custom, {5, false});
  for (std::size_t cell = 0; cell < 64; ++cell)
    EXPECT_DOUBLE_EQ(tracker.duty(cell), 0.0) << "cell " << cell;
  // The replay-only custom engine is rejected by the fast path, with the
  // same error class the built-in ablation variants produce.
  EXPECT_THROW(simulate_fast(stream, custom, {5}), std::invalid_argument);
}

TEST(PolicyRegistry, UnknownEngineThrowsListingRegistered) {
  register_always_invert();
  PolicyConfig unknown;
  unknown.kind = "no-such-engine";
  try {
    make_policy_engine(unknown, sim::MemoryGeometry{1, 64});
    FAIL() << "unknown policy engine accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("no policy engine registered under "
                           "'no-such-engine' (registered: no-mitigation, "
                           "inversion, barrel-shifter, dnn-life, "),
              std::string::npos)
        << message;
    // Built-in and custom registrations alike.
    EXPECT_NE(message.find("test-always-invert"), std::string::npos)
        << message;
  }
}

TEST(AggregatePlanDefaults, SampleInvertedThrowsWhenUnused) {
  // The deterministic built-in plans never defer sampling; the base-class
  // default must fail loudly if a simulator asks anyway.
  const auto engine = make_policy_engine(PolicyConfig::inversion(),
                                         sim::MemoryGeometry{2, 64});
  const auto plan = engine->make_aggregate_plan(4);
  ASSERT_NE(plan, nullptr);
  EXPECT_THROW(plan->sample_inverted(0), std::logic_error);
}

// ---- up-front config validation ----------------------------------------------

TEST(PolicyValidation, AcceptsTheEvaluatedConfigurations) {
  for (const auto& policy :
       {PolicyConfig::none(), PolicyConfig::inversion(),
        PolicyConfig::barrel_shifter(8), PolicyConfig::dnn_life(0.5),
        PolicyConfig::dnn_life(0.7, true, 4),
        // The deterministic endpoints used by the golden tests are valid
        // probabilities.
        PolicyConfig::dnn_life(0.0), PolicyConfig::dnn_life(1.0)}) {
    EXPECT_NO_THROW(validate_policy_config(policy, 96)) << policy.name();
  }
}

TEST(PolicyValidation, RejectsBadTrbgBias) {
  EXPECT_THROW(validate_policy_config(PolicyConfig::dnn_life(-0.1)),
               std::invalid_argument);
  EXPECT_THROW(validate_policy_config(PolicyConfig::dnn_life(1.5)),
               std::invalid_argument);
}

TEST(PolicyValidation, RejectsBadBalancerBits) {
  EXPECT_THROW(validate_policy_config(PolicyConfig::dnn_life(0.5, true, 0)),
               std::invalid_argument);
  EXPECT_THROW(validate_policy_config(PolicyConfig::dnn_life(0.5, true, 32)),
               std::invalid_argument);
  // Without balancing the register width is unused hardware: any value is
  // accepted.
  EXPECT_NO_THROW(validate_policy_config(PolicyConfig::dnn_life(0.5, false, 0)));
}

TEST(PolicyValidation, RejectsBadWeightBits) {
  EXPECT_THROW(validate_policy_config(PolicyConfig::barrel_shifter(0)),
               std::invalid_argument);
  EXPECT_THROW(validate_policy_config(PolicyConfig::barrel_shifter(65)),
               std::invalid_argument);
  // Divisibility is only checked against a bound memory...
  EXPECT_NO_THROW(validate_policy_config(PolicyConfig::barrel_shifter(7)));
  EXPECT_THROW(validate_policy_config(PolicyConfig::barrel_shifter(7), 96),
               std::invalid_argument);
  EXPECT_NO_THROW(validate_policy_config(PolicyConfig::barrel_shifter(8), 96));
  // ...and only for the rotating policy.
  auto odd = PolicyConfig::dnn_life(0.5);
  odd.weight_bits = 7;
  EXPECT_NO_THROW(validate_policy_config(odd, 96));
}

TEST(PolicyValidation, MessagesNameTheEngine) {
  register_always_invert();
  PolicyConfig custom;
  custom.kind = "test-always-invert";
  custom.weight_bits = 0;
  try {
    make_policy_engine(custom, sim::MemoryGeometry{1, 64});
    FAIL() << "weight_bits 0 accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("test-always-invert: weight_bits must be in 1..64"),
              std::string::npos)
        << message;
    EXPECT_EQ(message.find("no-mitigation"), std::string::npos) << message;
  }
}

TEST(PolicyValidation, SimulatorsFailFastOnBadConfigs) {
  sim::VectorWriteStream stream(sim::MemoryGeometry{2, 64}, 1);
  stream.add_write(0, 0, {0x1234ULL});
  // The error surfaces at policy validation, before any simulation work.
  EXPECT_THROW(simulate_fast(stream, PolicyConfig::dnn_life(2.0), {4}),
               std::invalid_argument);
  EXPECT_THROW(
      simulate_reference(stream, PolicyConfig::barrel_shifter(60), {4, false}),
      std::invalid_argument);
}

}  // namespace
}  // namespace dnnlife::core
