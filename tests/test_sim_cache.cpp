// The simulation-reuse layer: core::simulation_fingerprint's field
// inventory and stability pins, the SimCache LRU/refcount semantics, and
// the end-to-end guarantees of cache-aware sweeps — byte-identical
// summaries vs the cache-off path for every executor size, and exactly
// one simulation per distinct fingerprint under full concurrency
// (single-flight).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/scenario_generator.hpp"
#include "core/scenario_suite.hpp"
#include "core/sim_cache.hpp"
#include "util/executor.hpp"

namespace dnnlife::core {
namespace {

// ---- the field inventory -----------------------------------------------------

// Every ScenarioSpec field is classified by simulation_fingerprint as
// either stream-affecting (hashed) or evaluation-only (documented
// exclusion). These pins make that inventory enforceable: adding a field
// to any of the structs below changes its size and fails here, forcing
// the author to classify the field in core/scenario.cpp (and extend the
// sensitivity tests in this file) before re-pinning. If a size moved
// WITHOUT a new field (toolchain/ABI change), just re-pin.
TEST(SimulationFingerprint, FieldInventoryIsClassified) {
  // 312 since TpuNpuConfig lost its (never hashed) payload-cache switch.
  EXPECT_EQ(sizeof(ScenarioSpec), 312u)
      << "ScenarioSpec changed: classify the new field in "
         "simulation_fingerprint (core/scenario.cpp) before re-pinning";
  EXPECT_EQ(sizeof(ScenarioPhaseSpec), 64u)
      << "ScenarioPhaseSpec changed: phases are hashed as (network, "
         "inferences, segment partition) — classify the new field";
  // 104 and 64 since PolicyConfig names its policy once (the separate
  // engine string was deleted; `kind` is hashed as r.policy).
  EXPECT_EQ(sizeof(ScenarioRegionSpec), 104u)
      << "ScenarioRegionSpec changed: regions are hashed in full — "
         "classify the new field";
  EXPECT_EQ(sizeof(PolicyConfig), 64u)
      << "PolicyConfig changed: every stream-affecting knob is hashed "
         "(weight_bits excluded: overwritten from the codec) — classify "
         "the new field";
  EXPECT_EQ(sizeof(aging::EnvironmentSpec), 24u)
      << "EnvironmentSpec changed: environment VALUES are evaluation-only "
         "by design, but the coalescing partition depends on equality — "
         "check segment_environments still mirrors simulate_workload_phased";
  EXPECT_EQ(sizeof(sim::BaselineAcceleratorConfig), 32u)
      << "BaselineAcceleratorConfig changed: the active hardware config is "
         "hashed in full — classify the new field";
  // 16 since the (never hashed) payload-cache switch was removed.
  EXPECT_EQ(sizeof(sim::TpuNpuConfig), 16u)
      << "TpuNpuConfig changed: the active hardware config is hashed in "
         "full — classify the new field";
  // Evaluation-only sub-structs: excluded from the hash as a whole, but a
  // new field could plausibly belong in the stream — force the check.
  EXPECT_EQ(sizeof(aging::AgingReportOptions), 48u);
  EXPECT_EQ(sizeof(aging::SnmParams), 32u);
  EXPECT_EQ(sizeof(aging::LifetimeParams), 8u);
  EXPECT_EQ(sizeof(aging::AgingModelParams), 48u);
}

ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.phases.push_back(ScenarioPhaseSpec{});  // custom_mnist x 100, nominal
  return spec;
}

// ---- stability and collision pins --------------------------------------------

TEST(SimulationFingerprint, IsStableAcrossRunsAndProcesses) {
  // Golden value: a fingerprint is a cache key that may outlive the
  // process (journals, summary JSON), so it must never drift silently.
  // Re-pin only on an intentional canonicalisation change — doing so
  // invalidates cross-run fingerprint comparisons.
  EXPECT_EQ(simulation_fingerprint(base_spec()),
            "38bf80ee9f6fb400efe60cb350aa9305");
  // Deterministic within a process too.
  EXPECT_EQ(simulation_fingerprint(base_spec()),
            simulation_fingerprint(base_spec()));
}

TEST(SimulationFingerprint, EvaluationOnlyFieldsNeverPerturbTheHash) {
  const std::string baseline = simulation_fingerprint(base_spec());
  ScenarioSpec spec = base_spec();
  spec.name = "renamed";
  spec.threads = 16;
  spec.phases[0].environment.temperature_c = 125.0;  // values, not structure
  spec.phases[0].environment.vdd = 0.9;
  spec.phases[0].environment.activity_scale = 0.25;
  spec.report.threads = 8;
  spec.snm.t_ref_years = 10.0;
  spec.aging_model = "arrhenius-nbti";
  spec.aging_model_params["activation_energy_ev"] = 0.1;
  spec.lifetime.snm_failure_threshold = 22.0;
  EXPECT_EQ(simulation_fingerprint(spec), baseline)
      << "an evaluation-only field leaked into the fingerprint";
}

TEST(SimulationFingerprint, EveryStreamAffectingFieldPerturbsTheHash) {
  const std::string baseline = simulation_fingerprint(base_spec());
  std::set<std::string> seen{baseline};
  const auto expect_distinct = [&](const ScenarioSpec& spec,
                                   const char* what) {
    const std::string fingerprint = simulation_fingerprint(spec);
    EXPECT_TRUE(seen.insert(fingerprint).second)
        << what << " did not perturb the fingerprint (collision)";
  };
  {
    ScenarioSpec spec = base_spec();
    spec.phases[0].network = "alexnet";
    expect_distinct(spec, "phase network");
  }
  {
    ScenarioSpec spec = base_spec();
    spec.phases[0].inferences = 101;
    expect_distinct(spec, "phase inferences");
  }
  {
    ScenarioSpec spec = base_spec();
    spec.format = quant::WeightFormat::kInt8Asymmetric;
    expect_distinct(spec, "weight format");
  }
  {
    ScenarioSpec spec = base_spec();
    spec.hardware = HardwareKind::kTpuNpu;
    expect_distinct(spec, "hardware kind");
  }
  {
    ScenarioSpec spec = base_spec();
    spec.hardware = HardwareKind::kTpuNpu;
    spec.npu.array_dim *= 2;
    expect_distinct(spec, "npu array_dim");
  }
  {
    ScenarioSpec spec = base_spec();
    spec.baseline.weight_memory_bytes *= 2;
    expect_distinct(spec, "baseline weight memory");
  }
  {
    ScenarioSpec spec = base_spec();
    spec.use_reference_simulator = true;
    expect_distinct(spec, "simulator selection");
  }
  {
    ScenarioSpec spec = base_spec();
    spec.regions = {{"a", 0.5, PolicyConfig::none()},
                    {"b", 0.5, PolicyConfig::none()}};
    expect_distinct(spec, "region split");
  }
  {
    ScenarioSpec spec = base_spec();
    spec.regions = {{"memory", 1.0, PolicyConfig::inversion()}};
    expect_distinct(spec, "policy kind");
  }
  {
    ScenarioSpec spec = base_spec();
    spec.regions = {{"memory", 1.0, PolicyConfig::dnn_life()}};
    expect_distinct(spec, "dnn-life policy");
  }
  {
    ScenarioSpec spec = base_spec();
    spec.regions = {{"memory", 1.0, PolicyConfig::dnn_life(0.7)}};
    expect_distinct(spec, "trbg bias");
  }
  {
    ScenarioSpec spec = base_spec();
    spec.regions = {{"memory", 1.0, PolicyConfig::dnn_life(0.5, true, 8)}};
    expect_distinct(spec, "balancer bits");
  }
  {
    ScenarioSpec spec = base_spec();
    spec.regions = {
        {"memory", 1.0, PolicyConfig::dnn_life(0.5, true, 4, 123)}};
    expect_distinct(spec, "policy seed");
  }
  {
    ScenarioSpec spec = base_spec();
    auto policy = PolicyConfig::inversion();
    policy.reset_each_inference = false;
    spec.regions = {{"memory", 1.0, policy}};
    expect_distinct(spec, "reset_each_inference");
  }
  {
    ScenarioSpec spec = base_spec();
    spec.phases.push_back(spec.phases[0]);
    expect_distinct(spec, "phase count");
  }
  {
    // A dormant phase consumes a phase index (per-phase seeds derive from
    // it), so provisioned-but-idle models still perturb the hash.
    ScenarioSpec spec = base_spec();
    spec.phases.insert(spec.phases.begin(), {"alexnet", 0, {}});
    expect_distinct(spec, "dormant phase");
  }
}

TEST(SimulationFingerprint, PartitionStructureMattersButValuesDoNot) {
  // Two active phases under ONE environment coalesce into one duty
  // segment; distinct environments keep two. The fingerprint must track
  // that structure — it decides how many trackers the cached state holds
  // — while staying blind to the values themselves.
  ScenarioSpec merged = base_spec();
  merged.phases.push_back(merged.phases[0]);  // same nominal env: 1 segment

  ScenarioSpec split = merged;
  split.phases[1].environment.temperature_c = 85.0;  // 2 segments

  ScenarioSpec shifted = split;  // still 2 segments, different values
  shifted.phases[0].environment.vdd = 0.95;
  shifted.phases[1].environment.temperature_c = 125.0;

  ScenarioSpec hot_merged = merged;  // 1 segment again, both phases hot
  hot_merged.phases[0].environment.temperature_c = 85.0;
  hot_merged.phases[1].environment.temperature_c = 85.0;

  EXPECT_NE(simulation_fingerprint(merged), simulation_fingerprint(split));
  EXPECT_EQ(simulation_fingerprint(split), simulation_fingerprint(shifted))
      << "environment values leaked into the partition structure";
  EXPECT_EQ(simulation_fingerprint(merged), simulation_fingerprint(hot_merged));
}

TEST(SimulationFingerprint, EmptyRegionsEqualTheExplicitDefault) {
  ScenarioSpec implicit = base_spec();
  ScenarioSpec explicit_default = base_spec();
  explicit_default.regions = {{"memory", 1.0, PolicyConfig{}}};
  EXPECT_EQ(simulation_fingerprint(implicit),
            simulation_fingerprint(explicit_default));
}

// ---- the cache itself --------------------------------------------------------

SimCache::StatePtr make_state(std::size_t cells) {
  auto state = std::make_shared<SimulationState>();
  state->geometry.rows = 1;
  state->geometry.row_bits = static_cast<std::uint32_t>(cells);
  state->regions = {{"memory", 0, cells}};
  aging::DutyCycleTracker tracker(cells);
  tracker.add_ones_time(0, 7);
  tracker.add_total_time(0, 10);
  tracker.set_regions(state->regions);
  state->segment_trackers.push_back(std::move(tracker));
  return state;
}

TEST(SimCache, LruEvictionRespectsTheByteBudgetAndRecency) {
  const std::size_t entry_bytes = make_state(1024)->bytes();
  SimCache cache(2 * entry_bytes);  // room for exactly two entries
  cache.insert("a", make_state(1024));
  cache.insert("b", make_state(1024));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Freshen "a", then overflow: the least recently used entry is "b".
  EXPECT_NE(cache.lookup("a"), nullptr);
  cache.insert("c", make_state(1024));
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  const SimCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_LE(stats.bytes_in_use, cache.capacity_bytes());
  EXPECT_EQ(cache.lookup("b"), nullptr);  // counted as a miss
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SimCache, EvictedStateStaysAliveWhileAReaderHoldsIt) {
  const std::size_t entry_bytes = make_state(1024)->bytes();
  SimCache cache(entry_bytes);  // budget for one entry only
  const SimCache::StatePtr held = cache.insert("old", make_state(1024));
  ASSERT_NE(held, nullptr);
  cache.insert("new", make_state(1024));  // evicts "old" from the index
  EXPECT_FALSE(cache.contains("old"));
  // The evicted state is still fully readable through the held pointer —
  // eviction drops the cache's reference, not the reader's.
  EXPECT_EQ(held->segment_trackers.size(), 1u);
  EXPECT_EQ(held->segment_trackers[0].ones_time()[0], 7u);
  EXPECT_DOUBLE_EQ(held->segment_trackers[0].duty(0), 0.7);
}

TEST(SimCache, OversizedEntryEvictsItselfButTheReturnedPointerIsValid) {
  SimCache cache(16);  // smaller than any state
  const SimCache::StatePtr state = cache.insert("huge", make_state(4096));
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->segment_trackers[0].cell_count(), 4096u);
  EXPECT_FALSE(cache.contains("huge"));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(SimCache, InsertIsFirstWins) {
  SimCache cache(1 << 20);
  const SimCache::StatePtr first = cache.insert("k", make_state(64));
  const SimCache::StatePtr second = cache.insert("k", make_state(64));
  EXPECT_EQ(first, second) << "a racing insert must converge on the "
                              "committed canonical state";
  EXPECT_EQ(cache.stats().inserts, 1u);
}

// ---- cache-aware runs --------------------------------------------------------

TEST(RunScenario, CacheHitSkipsSimulationAndMatchesTheCacheOffResult) {
  ScenarioSpec spec = base_spec();
  spec.hardware = HardwareKind::kTpuNpu;
  spec.npu.array_dim = 32;
  spec.npu.fifo_tiles = 2;
  spec.threads = 1;
  const ScenarioResult plain = run_scenario(spec);

  RunScenarioOptions options;
  options.sim_cache = std::make_shared<SimCache>(std::size_t{1} << 26);
  const ScenarioResult miss = run_scenario(spec, options);
  EXPECT_EQ(options.sim_cache->stats().misses, 1u);
  EXPECT_EQ(options.sim_cache->stats().inserts, 1u);

  // Second run: a hit, evaluated against the shared tracker state — and
  // the numbers match the simulate-every-time path exactly.
  ScenarioSpec hot = spec;
  hot.phases[0].environment.temperature_c = 85.0;
  hot.aging_model = "arrhenius-nbti";
  const ScenarioResult cached = run_scenario(spec, options);
  EXPECT_EQ(options.sim_cache->stats().hits, 1u);
  EXPECT_EQ(cached.report.snm_stats.mean(), plain.report.snm_stats.mean());
  EXPECT_EQ(cached.report.duty_stats.mean(), plain.report.duty_stats.mean());
  ASSERT_TRUE(cached.lifetime.has_value());
  EXPECT_EQ(cached.lifetime->device_lifetime_years,
            plain.lifetime->device_lifetime_years);

  // A different evaluation environment over the SAME cached state still
  // hits, and agrees with its own cache-off run.
  const ScenarioResult hot_cached = run_scenario(hot, options);
  EXPECT_EQ(options.sim_cache->stats().hits, 2u);
  const ScenarioResult hot_plain = run_scenario(hot);
  EXPECT_EQ(hot_cached.report.snm_stats.mean(),
            hot_plain.report.snm_stats.mean());
  EXPECT_EQ(hot_cached.lifetime->device_lifetime_years,
            hot_plain.lifetime->device_lifetime_years);
}

/// A 12-point environment-only grid: every point shares one simulation
/// fingerprint (3 temperatures x 2 vdd x 2 activity scales are all
/// evaluation-time inputs over one write stream).
std::string env_grid_spec() {
  return R"({
  "name": "envgrid",
  "base": {
    "hardware": "tpu-like-npu",
    "npu": {"array_dim": 32, "fifo_tiles": 2},
    "aging_model": "arrhenius-nbti",
    "phases": [{"network": "custom_mnist", "inferences": 2}]
  },
  "axes": [
    {"parameter": "temperature_c", "values": [25, 55, 85]},
    {"parameter": "vdd", "values": [0.95, 1.0]},
    {"parameter": "activity_scale", "values": [0.5, 1.0]}
  ]
})";
}

/// The same grid with the activity axis swapped for a policy axis: the
/// policy rewrites the write stream, so the 12 points split into exactly
/// two fingerprint groups of six.
std::string policy_grid_spec() {
  return R"({
  "name": "policygrid",
  "base": {
    "hardware": "tpu-like-npu",
    "npu": {"array_dim": 32, "fifo_tiles": 2},
    "aging_model": "arrhenius-nbti",
    "phases": [{"network": "custom_mnist", "inferences": 2}]
  },
  "axes": [
    {"parameter": "temperature_c", "values": [25, 55, 85]},
    {"parameter": "vdd", "values": [0.95, 1.0]},
    {"parameter": "policy", "values": ["no-mitigation", "dnn-life"]}
  ]
})";
}

ScenarioSuite suite_from(const std::string& sweep_spec) {
  ScenarioSuite suite;
  for (GeneratedScenario& point :
       ScenarioGenerator::parse(sweep_spec).generate())
    suite.add(SuiteEntry{point.name + ".json", std::move(point.spec),
                         std::move(point.document)});
  return suite;
}

TEST(SweepSimCache, SummariesAreByteIdenticalCacheOnVsOffForEveryExecutorSize) {
  const ScenarioSuite suite = suite_from(policy_grid_spec());
  ASSERT_EQ(suite.size(), 12u);
  SuiteSummaryInfo info;
  info.total_scenarios = suite.size();
  info.manifest_hash = suite.manifest_hash();
  info.include_timing = false;  // wall clocks and cache stats are run
                                // properties, not sweep results

  std::string reference;
  for (const unsigned workers : {1u, 2u, 0u}) {  // 0 = hardware concurrency
    util::Executor::configure_session(workers);
    for (const bool cache_on : {false, true}) {
      SuiteRunOptions options;
      options.jobs = 4;
      options.threads_per_scenario = 1;
      if (cache_on)
        options.sim_cache = std::make_shared<SimCache>(std::size_t{1} << 26);
      const std::string summary = suite_summary_json(
          make_suite_records(suite.run(options)), info);
      if (reference.empty())
        reference = summary;
      else
        EXPECT_EQ(summary, reference)
            << "summary drifted at executor size " << workers << ", cache "
            << (cache_on ? "on" : "off");
    }
  }
  util::Executor::configure_session(0);  // restore hardware sizing
}

TEST(SweepSimCache, SingleFlightSimulatesOncePerFingerprintAtFullConcurrency) {
  // All 12 points share one fingerprint and all 12 are admitted at once:
  // without single-flight every point would miss and simulate; with it,
  // exactly one simulates and eleven are parked until the entry commits.
  const ScenarioSuite suite = suite_from(env_grid_spec());
  ASSERT_EQ(suite.size(), 12u);
  SuiteRunOptions options;
  options.jobs = 12;
  options.threads_per_scenario = 1;
  options.sim_cache = std::make_shared<SimCache>(std::size_t{1} << 26);
  const std::vector<SuiteOutcome> outcomes = suite.run(options);

  std::set<std::string> fingerprints;
  for (const SuiteOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.error;
    ASSERT_FALSE(outcome.fingerprint.empty());
    fingerprints.insert(outcome.fingerprint);
  }
  EXPECT_EQ(fingerprints.size(), 1u);
  const SimCacheStats stats = options.sim_cache->stats();
  EXPECT_EQ(stats.misses, 1u) << "a sibling raced past the single-flight gate";
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.hits, 11u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(SweepSimCache, MixedGridGroupsPointsByFingerprint) {
  const ScenarioSuite suite = suite_from(policy_grid_spec());
  SuiteRunOptions options;
  options.jobs = 12;
  options.threads_per_scenario = 1;
  options.sim_cache = std::make_shared<SimCache>(std::size_t{1} << 26);
  const std::vector<SuiteOutcome> outcomes = suite.run(options);

  std::set<std::string> fingerprints;
  for (const SuiteOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.error;
    fingerprints.insert(outcome.fingerprint);
  }
  EXPECT_EQ(fingerprints.size(), 2u)
      << "the policy axis must split the grid into two simulation groups";
  const SimCacheStats stats = options.sim_cache->stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.hits, 10u);
}

}  // namespace
}  // namespace dnnlife::core
