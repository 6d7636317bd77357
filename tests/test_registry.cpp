// Tests for util::Registry through its two instances: sweep points look
// policies and aging models up concurrently while extensions add entries.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "aging/model_registry.hpp"
#include "core/policy_engine.hpp"
#include "util/executor.hpp"

namespace dnnlife {
namespace {

/// True when `message` is the registry's unknown-name diagnostic for
/// `name`, listing at least the built-ins (in registration order).
bool is_listing_message(const std::string& message, const std::string& noun,
                        const std::string& name, const std::string& builtins) {
  return message.rfind("no " + noun + " registered under '" + name +
                           "' (registered: " + builtins,
                       0) == 0;
}

TEST(Registry, ConcurrentLookupsDuringAddsFindOrListEveryName) {
  // Unique per test run, so a repeated run in one process adds new names.
  static std::atomic<int> run{0};
  const std::string prefix = "registry-race-" + std::to_string(run++) + "-";
  constexpr int kNames = 64;
  constexpr int kTasks = 8;
  constexpr int kLookupsPerTask = 256;

  auto& policies = core::PolicyRegistry::instance();
  auto& models = aging::AgingModelRegistry::instance();
  std::atomic<int> found{0}, missing{0}, wrong{0};
  const sim::MemoryGeometry geometry{4, 64};

  util::Executor executor(4);
  util::TaskGroup group(executor);
  std::thread adder([&] {
    for (int i = 0; i < kNames; ++i) {
      const std::string name = prefix + std::to_string(i);
      policies.add(name, [](const core::PolicyConfig& config,
                            const sim::MemoryGeometry& memory,
                            const sim::MemoryRegion& region) {
        core::PolicyConfig inner = config;
        inner.kind = "inversion";
        return core::make_policy_engine(inner, memory, region);
      });
      models.add(name, [](const aging::SnmParams& snm,
                          const aging::AgingModelParams& params) {
        return aging::make_aging_model(aging::kDefaultAgingModel, snm, params);
      });
    }
  });
  for (int task = 0; task < kTasks; ++task) {
    group.submit([&, task] {
      for (int j = 0; j < kLookupsPerTask; ++j) {
        const std::string name =
            prefix + std::to_string((task * kLookupsPerTask + j) % kNames);
        core::PolicyConfig config;
        config.kind = name;
        try {
          // A found policy is an inversion engine: its first write to a
          // row is stored as-is.
          const auto engine = core::make_policy_engine(config, geometry);
          const auto model = aging::make_aging_model(name);
          if (!engine->on_write(0).invert && model != nullptr) ++found;
          else ++wrong;
        } catch (const std::invalid_argument& error) {
          // Either lookup may miss: the model is added after its policy.
          if (is_listing_message(error.what(), "policy engine", name,
                                 "no-mitigation, inversion, barrel-shifter, "
                                 "dnn-life") ||
              is_listing_message(error.what(), "aging model", name,
                                 "calibrated-nbti, arrhenius-nbti, "
                                 "pbti-hci, dual-bti"))
            ++missing;
          else
            ++wrong;
        }
        // The built-ins resolve throughout.
        if (core::make_policy_engine(core::PolicyConfig::dnn_life(0.5),
                                     geometry) == nullptr ||
            aging::make_aging_model("dual-bti") == nullptr)
          ++wrong;
      }
    });
  }
  group.wait();
  adder.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(found.load() + missing.load(), kTasks * kLookupsPerTask);
  for (int i = 0; i < kNames; ++i) {
    EXPECT_TRUE(policies.contains(prefix + std::to_string(i)));
    EXPECT_TRUE(models.contains(prefix + std::to_string(i)));
  }
  const auto names = policies.names();
  ASSERT_GE(names.size(), 4u + kNames);
  EXPECT_EQ(names[0], "no-mitigation");
  EXPECT_EQ(names[3], "dnn-life");
}

}  // namespace
}  // namespace dnnlife
