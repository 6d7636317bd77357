// SweepScheduler row-payload sharing: points that simulate against the
// same (network, format, dataflow) share one sim::EncodedRows build. The
// first claims the key, later ones park until it publishes, a failed or
// timed-out builder hands the key to a parked sibling, and points that
// never simulate (store hits) never wait on a key. Fingerprint
// single-flight follows the same rule: a failed leader hands its
// fingerprint to a parked sibling that simulates once. Records stay
// byte-identical to private, unshared runs, with or without a soft
// deadline, and when parked siblings lend their admission slots to the
// build.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "core/scenario_suite.hpp"
#include "core/sim_cache.hpp"
#include "core/sim_store.hpp"
#include "core/sweep_scheduler.hpp"

namespace dnnlife::core {
namespace {

namespace fs = std::filesystem;

/// A fast scenario; `seed` only perturbs the fingerprint, `format` picks
/// the payload key.
ScenarioSpec point_spec(std::uint64_t seed,
                        quant::WeightFormat format =
                            quant::WeightFormat::kInt8Symmetric) {
  ScenarioSpec spec;
  spec.name = "point" + std::to_string(seed) + "-" + quant::to_string(format);
  spec.format = format;
  spec.hardware = HardwareKind::kTpuNpu;
  spec.npu.array_dim = 32;
  spec.npu.fifo_tiles = 2;
  spec.phases.push_back(ScenarioPhaseSpec{"custom_mnist", 2, {}});
  ScenarioRegionSpec region;
  region.policy = PolicyConfig::inversion();
  region.policy.seed = seed;
  spec.regions.push_back(region);
  return spec;
}

/// The summary record of a finished point, timing omitted.
std::string record_json(const SuiteOutcome& outcome) {
  return suite_record_json(make_suite_record(outcome), false);
}

/// The summary record of a private run_scenario, timing omitted.
std::string private_record(const ScenarioSpec& spec, std::size_t index) {
  SuiteOutcome outcome;
  outcome.index = index;
  outcome.path = "<" + spec.name + ">";
  outcome.name = spec.name;
  outcome.fingerprint = simulation_fingerprint(spec);
  outcome.ok = true;
  outcome.result = run_scenario(spec);
  return record_json(outcome);
}

/// Submit `spec` as point `index`, under the path private_record gives it.
SweepScheduler::Handle submit(SweepScheduler& scheduler, ScenarioSpec spec,
                              std::size_t index) {
  std::string path = "<" + spec.name + ">";
  return scheduler.submit(SuiteEntry{std::move(path), std::move(spec), {}},
                          index);
}

/// Every point's outcome, in submission order; call after wait_all().
std::vector<SuiteOutcome> take_outcomes(
    std::vector<SweepScheduler::Handle>& handles) {
  std::vector<SuiteOutcome> outcomes;
  for (SweepScheduler::Handle& handle : handles)
    outcomes.push_back(handle.take_outcome());
  return outcomes;
}

/// How the held builder (point 0) ends once released.
enum class BuilderEnd { kBuilds, kThrows, kStalls };

/// The soft deadline the stalling builder sleeps past.
constexpr double kStallDeadlineSeconds = 2.0;

/// A fault hook that holds point 0 (the first builder) until release(),
/// so every later submission deterministically finds its build in flight.
/// Point 0 then builds, throws, or sleeps past kStallDeadlineSeconds so
/// that its attempt times out before building.
struct HeldBuilder {
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();

  SuiteFaultHook hook(BuilderEnd end) const {
    return [open = open, end](const SuiteFaultContext& context) {
      if (context.index != 0) return;
      open.wait();
      if (end == BuilderEnd::kThrows)
        throw std::runtime_error("injected builder failure");
      if (end == BuilderEnd::kStalls)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kStallDeadlineSeconds + 0.25));
    };
  }
  void release() { gate.set_value(); }
};

fs::path temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// A soft deadline changes nothing about sharing: deadline attempts run
// inline like any other.
TEST(RowSharing, SameKeyPointsBuildOnceAndMatchPrivateRuns) {
  for (const double deadline : {0.0, 60.0}) {
    SCOPED_TRACE(::testing::Message() << "soft deadline " << deadline << " s");
    HeldBuilder builder;
    SweepScheduler::Options options;
    options.jobs = 4;
    options.threads_per_scenario = 1;
    options.soft_deadline_seconds = deadline;
    options.fault_hook = builder.hook(BuilderEnd::kBuilds);
    SweepScheduler scheduler(options);
    std::vector<ScenarioSpec> specs;
    std::vector<SweepScheduler::Handle> handles;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      specs.push_back(point_spec(seed));
      handles.push_back(submit(scheduler, specs.back(), seed));
    }
    builder.release();
    scheduler.wait_all();
    const SweepScheduler::RowsStats stats = scheduler.rows_stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.parks, 3u);
    const std::vector<SuiteOutcome> outcomes = take_outcomes(handles);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
      EXPECT_EQ(record_json(outcomes[i]), private_record(specs[i], i));
    }
  }
}

// At jobs 1 with point 0 held, every later point is queued behind it or
// parked on a key, so the build count cannot depend on timing.
TEST(RowSharing, InterleavedKeysBuildOncePerKey) {
  HeldBuilder builder;
  SweepScheduler::Options options;
  options.jobs = 1;
  options.threads_per_scenario = 1;
  options.fault_hook = builder.hook(BuilderEnd::kBuilds);
  SweepScheduler scheduler(options);
  std::vector<SweepScheduler::Handle> handles;
  for (std::uint64_t seed = 0; seed < 4; ++seed)
    handles.push_back(submit(
        scheduler,
        point_spec(seed, seed % 2 == 0 ? quant::WeightFormat::kInt8Symmetric
                                       : quant::WeightFormat::kInt8Asymmetric),
        seed));
  builder.release();
  scheduler.wait_all();
  for (const SuiteOutcome& outcome : take_outcomes(handles))
    EXPECT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(scheduler.rows_stats().builds, 2u);
}

TEST(RowSharing, NothingStaysHeldAfterWaitAll) {
  HeldBuilder builder;
  SweepScheduler::Options options;
  options.jobs = 1;
  options.threads_per_scenario = 1;
  options.fault_hook = builder.hook(BuilderEnd::kBuilds);
  SweepScheduler scheduler(options);
  std::uint64_t seed = 0;
  for (const quant::WeightFormat format :
       {quant::WeightFormat::kInt8Symmetric,
        quant::WeightFormat::kInt8Asymmetric, quant::WeightFormat::kFloat32})
    for (int repeat = 0; repeat < 2; ++repeat, ++seed)
      submit(scheduler, point_spec(seed, format), seed);
  EXPECT_EQ(scheduler.rows_stats().held, 3u);
  builder.release();
  scheduler.wait_all();
  const SweepScheduler::RowsStats stats = scheduler.rows_stats();
  EXPECT_EQ(stats.builds, 3u);
  EXPECT_EQ(stats.held, 0u);
}

// The builder fails by throwing, or by timing out before it builds.
TEST(RowSharing, FailedBuilderPromotesASiblingThatBuildsOnce) {
  for (const BuilderEnd end : {BuilderEnd::kThrows, BuilderEnd::kStalls}) {
    const bool stalls = end == BuilderEnd::kStalls;
    SCOPED_TRACE(stalls ? "builder stalls past its deadline"
                        : "builder throws");
    HeldBuilder builder;
    SweepScheduler::Options options;
    options.jobs = 4;
    options.threads_per_scenario = 1;
    options.retries = 0;
    if (stalls) options.soft_deadline_seconds = kStallDeadlineSeconds;
    options.fault_hook = builder.hook(end);
    SweepScheduler scheduler(options);
    std::vector<SweepScheduler::Handle> handles;
    for (std::uint64_t seed = 0; seed < 4; ++seed)
      handles.push_back(submit(scheduler, point_spec(seed), seed));
    builder.release();
    scheduler.wait_all();
    const std::vector<SuiteOutcome> outcomes = take_outcomes(handles);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].timed_out, stalls);
    for (std::size_t i = 1; i < outcomes.size(); ++i)
      EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    const SweepScheduler::RowsStats stats = scheduler.rows_stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.held, 0u);
  }
}

// Eleven siblings park on one key, so the builder's stages borrow their
// idle admission slots. A builder that throws holds no lent budget to
// hand back: the promoted sibling builds on whatever slots are idle then.
TEST(RowSharing, ParkedSiblingsLendTheirSlotsToTheBuild) {
  constexpr std::size_t kPoints = 12;
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t seed = 0; seed < kPoints; ++seed)
    specs.push_back(point_spec(seed));
  SweepScheduler::Options options;
  options.threads_per_scenario = 1;
  std::vector<std::string> serial;
  {
    options.jobs = 1;
    SweepScheduler scheduler(options);
    std::vector<SweepScheduler::Handle> handles;
    for (std::size_t i = 0; i < kPoints; ++i)
      handles.push_back(submit(scheduler, specs[i], i));
    scheduler.wait_all();
    const std::vector<SuiteOutcome> outcomes = take_outcomes(handles);
    for (std::size_t i = 0; i < kPoints; ++i) {
      serial.push_back(record_json(outcomes[i]));
      EXPECT_EQ(serial.back(), private_record(specs[i], i));
    }
  }
  for (const BuilderEnd end : {BuilderEnd::kBuilds, BuilderEnd::kThrows}) {
    const bool throws = end == BuilderEnd::kThrows;
    SCOPED_TRACE(throws ? "builder throws" : "builder builds");
    HeldBuilder builder;
    options.jobs = 4;
    options.fault_hook = builder.hook(end);
    SweepScheduler scheduler(options);
    std::vector<SweepScheduler::Handle> handles;
    for (std::size_t i = 0; i < kPoints; ++i)
      handles.push_back(submit(scheduler, specs[i], i));
    EXPECT_EQ(scheduler.rows_stats().parks, kPoints - 1);
    builder.release();
    scheduler.wait_all();
    const SweepScheduler::RowsStats stats = scheduler.rows_stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.held, 0u);
    if (!throws) {
      EXPECT_EQ(stats.parks, kPoints - 1);
    }
    const std::vector<SuiteOutcome> outcomes = take_outcomes(handles);
    EXPECT_EQ(outcomes[0].ok, !throws);
    for (std::size_t i = throws ? 1 : 0; i < kPoints; ++i) {
      ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
      EXPECT_EQ(record_json(outcomes[i]), serial[i]);
    }
  }
}

// Four points of one fingerprint: point 0 claims it and fails, the first
// parked sibling takes the claim over and simulates once, and the other
// two evaluate against the entry it committed to the store or the cache.
TEST(RowSharing, FailedFingerprintLeaderPromotesASiblingThatSimulatesOnce) {
  std::vector<ScenarioSpec> specs;
  for (std::size_t i = 0; i < 4; ++i) {
    specs.push_back(point_spec(0));
    specs.back().name = "sibling" + std::to_string(i);
  }
  for (const bool store_tier : {true, false}) {
    SCOPED_TRACE(store_tier ? "sim store" : "sim cache");
    const fs::path dir = temp_dir("dnnlife_rows_sharing_promote");
    SweepScheduler::Options options;
    options.jobs = 4;
    options.threads_per_scenario = 1;
    options.retries = 0;
    options.fault_hook = [](const SuiteFaultContext& context) {
      if (context.index == 0)
        throw std::runtime_error("injected leader failure");
    };
    if (store_tier)
      options.sim_store =
          std::make_shared<SimStore>(SimStore::Options{dir.string(), 0});
    else
      options.sim_cache = std::make_shared<SimCache>(std::size_t{1} << 26);
    SweepScheduler scheduler(options);
    std::vector<SweepScheduler::Handle> handles;
    for (std::size_t i = 0; i < specs.size(); ++i)
      handles.push_back(submit(scheduler, specs[i], i));
    scheduler.wait_all();
    const std::vector<SuiteOutcome> outcomes = take_outcomes(handles);
    EXPECT_FALSE(outcomes[0].ok);
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
      EXPECT_EQ(outcomes[i].fingerprint, outcomes[0].fingerprint);
      EXPECT_EQ(record_json(outcomes[i]), private_record(specs[i], i));
    }
    if (store_tier) {
      const SimStoreStats stats = options.sim_store->stats();
      EXPECT_EQ(stats.misses, 1u);
      EXPECT_EQ(stats.publishes, 1u);
      EXPECT_EQ(stats.hits, 2u);
    } else {
      const SimCacheStats stats = options.sim_cache->stats();
      EXPECT_EQ(stats.misses, 1u);
      EXPECT_EQ(stats.inserts, 1u);
      EXPECT_EQ(stats.hits, 2u);
    }
    const SweepScheduler::RowsStats rows = scheduler.rows_stats();
    EXPECT_EQ(rows.builds, 1u);
    EXPECT_EQ(rows.held, 0u);
    fs::remove_all(dir);
  }
}

TEST(RowSharing, StoreHitsNeverParkOnAKey) {
  const fs::path dir = temp_dir("dnnlife_rows_sharing_store");
  const auto store =
      std::make_shared<SimStore>(SimStore::Options{dir.string(), 0});
  SweepScheduler::Options options;
  options.jobs = 4;
  options.threads_per_scenario = 1;
  options.sim_store = store;
  {
    // Warm the store with the fingerprints of seeds 0 and 1.
    SweepScheduler warm(options);
    submit(warm, point_spec(0), 0);
    submit(warm, point_spec(1), 1);
    warm.wait_all();
  }
  {
    // Hits interleaved with misses: only the second miss waits on the
    // first miss's build.
    HeldBuilder builder;
    SweepScheduler::Options held = options;
    held.fault_hook = builder.hook(BuilderEnd::kBuilds);
    SweepScheduler scheduler(held);
    std::vector<SweepScheduler::Handle> handles;
    handles.push_back(submit(scheduler, point_spec(2), 0));  // miss, builds
    handles.push_back(submit(scheduler, point_spec(0), 1));  // hit
    handles.push_back(submit(scheduler, point_spec(1), 2));  // hit
    handles.push_back(submit(scheduler, point_spec(3), 3));  // miss, parks
    builder.release();
    scheduler.wait_all();
    for (const SuiteOutcome& outcome : take_outcomes(handles))
      EXPECT_TRUE(outcome.ok) << outcome.error;
    const SweepScheduler::RowsStats stats = scheduler.rows_stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.parks, 1u);
  }
  {
    // All hits: nothing is built and nothing waits.
    SweepScheduler scheduler(options);
    for (std::uint64_t seed = 0; seed < 4; ++seed)
      submit(scheduler, point_spec(seed), seed);
    scheduler.wait_all();
    const SweepScheduler::RowsStats stats = scheduler.rows_stats();
    EXPECT_EQ(stats.builds, 0u);
    EXPECT_EQ(stats.parks, 0u);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dnnlife::core
