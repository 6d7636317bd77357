// The disk tier of simulation reuse (core/sim_store.hpp): bit-exact
// round trips of serialized tracker state, the corruption corpus
// (truncation, flipped bytes, stale version headers → quarantined misses,
// never crashes), concurrent publishers converging on one valid entry,
// the byte-budget GC, tiered cache→store probe order, store-only
// single-flight, and the end-to-end guarantee — warm-store sweep
// summaries byte-identical to cache-off runs for every executor size.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "core/scenario_generator.hpp"
#include "core/scenario_suite.hpp"
#include "core/sim_cache.hpp"
#include "core/sim_store.hpp"
#include "util/binio.hpp"
#include "util/executor.hpp"
#include "util/hash.hpp"

namespace dnnlife::core {
namespace {

namespace fs = std::filesystem;

// ---- tracker serialization ---------------------------------------------------

aging::DutyCycleTracker make_tracker(std::size_t cells, std::uint32_t salt) {
  aging::DutyCycleTracker tracker(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    // Deterministic, cell-varying accumulators (wrapping arithmetic is
    // part of the contract — include values near the uint32 ceiling).
    tracker.ones_time()[cell] =
        static_cast<std::uint32_t>(cell * 2654435761u + salt);
    tracker.total_time()[cell] =
        static_cast<std::uint32_t>(cell * 40503u + salt * 3u + 1u);
  }
  if (cells >= 2)
    tracker.set_regions({{"hot", 0, cells / 2}, {"cold", cells / 2, cells}});
  else
    tracker.set_regions({{"all", 0, cells}});
  return tracker;
}

TEST(DutyCycleTrackerSerialization, RoundTripsBitExactly) {
  const aging::DutyCycleTracker original = make_tracker(513, 7);
  std::string bytes;
  original.save(bytes);
  util::ByteReader reader(bytes);
  const aging::DutyCycleTracker loaded = aging::DutyCycleTracker::load(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(loaded.cell_count(), original.cell_count());
  EXPECT_EQ(loaded.ones_time(), original.ones_time());
  EXPECT_EQ(loaded.total_time(), original.total_time());
  EXPECT_EQ(loaded.regions(), original.regions());

  // Serialization is canonical: saving the loaded tracker reproduces the
  // exact bytes.
  std::string again;
  loaded.save(again);
  EXPECT_EQ(again, bytes);
}

TEST(DutyCycleTrackerSerialization, EveryTruncationIsARejectedParse) {
  const aging::DutyCycleTracker tracker = make_tracker(8, 3);
  std::string bytes;
  tracker.save(bytes);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    util::ByteReader reader(std::string_view(bytes).substr(0, cut));
    EXPECT_THROW(aging::DutyCycleTracker::load(reader), std::invalid_argument)
        << "prefix of " << cut << " bytes parsed as a whole tracker";
  }
}

// ---- state serialization -----------------------------------------------------

std::shared_ptr<SimulationState> make_state(std::uint32_t rows,
                                            std::uint32_t row_bits,
                                            std::size_t segments,
                                            std::uint32_t salt) {
  auto state = std::make_shared<SimulationState>();
  state->geometry.rows = rows;
  state->geometry.row_bits = row_bits;
  const std::uint64_t cells = state->geometry.cells();
  state->regions = {{"hot", 0, cells / 2}, {"cold", cells / 2, cells}};
  for (std::size_t s = 0; s < segments; ++s) {
    aging::DutyCycleTracker tracker(static_cast<std::size_t>(cells));
    for (std::size_t cell = 0; cell < cells; ++cell) {
      tracker.ones_time()[cell] =
          static_cast<std::uint32_t>(cell + s * 977u + salt);
      tracker.total_time()[cell] =
          static_cast<std::uint32_t>(cell * 5u + s + salt + 1u);
    }
    tracker.set_regions(state->regions);
    state->segment_trackers.push_back(std::move(tracker));
  }
  return state;
}

bool states_equal(const SimulationState& a, const SimulationState& b) {
  if (a.geometry.rows != b.geometry.rows ||
      a.geometry.row_bits != b.geometry.row_bits ||
      a.regions != b.regions ||
      a.segment_trackers.size() != b.segment_trackers.size())
    return false;
  for (std::size_t i = 0; i < a.segment_trackers.size(); ++i) {
    if (a.segment_trackers[i].ones_time() !=
            b.segment_trackers[i].ones_time() ||
        a.segment_trackers[i].total_time() !=
            b.segment_trackers[i].total_time() ||
        a.segment_trackers[i].regions() != b.segment_trackers[i].regions())
      return false;
  }
  return true;
}

TEST(SimulationStateSerialization, RoundTripsBitExactly) {
  const auto state = make_state(16, 32, 3, 11);
  const std::string bytes = serialize_simulation_state(*state);
  const SimStore::StatePtr loaded = deserialize_simulation_state(bytes, "t");
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(states_equal(*state, *loaded));
  EXPECT_EQ(serialize_simulation_state(*loaded), bytes)
      << "serialization must be canonical";
}

TEST(SimulationStateSerialization, DormantStateRoundTrips) {
  // A workload where every phase is dormant commits no trackers — only
  // geometry and region tags (the zero tracker is rebuilt at evaluation).
  auto state = std::make_shared<SimulationState>();
  state->geometry.rows = 4;
  state->geometry.row_bits = 8;
  state->regions = {{"memory", 0, 32}};
  const std::string bytes = serialize_simulation_state(*state);
  const SimStore::StatePtr loaded = deserialize_simulation_state(bytes, "t");
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(states_equal(*state, *loaded));
}

TEST(SimulationStateSerialization, RejectsTrailingGarbageAndDamage) {
  const std::string bytes = serialize_simulation_state(*make_state(8, 16, 2, 1));
  EXPECT_THROW(deserialize_simulation_state(bytes + "x", "t"),
               std::invalid_argument);
  EXPECT_THROW(deserialize_simulation_state("hello", "t"),
               std::invalid_argument);
  EXPECT_THROW(deserialize_simulation_state("", "t"), std::invalid_argument);
  // Every single-byte flip is caught (checksum, magic or version check).
  for (const std::size_t at : {std::size_t{0}, std::size_t{17},
                               bytes.size() / 2, bytes.size() - 1}) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
    EXPECT_THROW(deserialize_simulation_state(flipped, "t"),
                 std::invalid_argument)
        << "flip at byte " << at << " was not detected";
  }
}

TEST(SimulationStateSerialization, EverySingleBitFlipIsDetected) {
  // Two segments and a payload spanning many of the checksum's 32-byte
  // lane blocks plus a non-empty tail: each lane step and the tail step
  // are bijections, so no single flipped bit anywhere may go unnoticed.
  const std::string bytes =
      serialize_simulation_state(*make_state(4, 24, 2, 3));
  const std::size_t framed = bytes.size() - 8;  // all but the checksum
  ASSERT_GE(framed / 32, 8u);
  ASSERT_NE(framed % 32, 0u) << "the payload must leave a checksum tail";
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
      EXPECT_THROW(deserialize_simulation_state(flipped, "t"),
                   std::invalid_argument)
          << "flip of bit " << bit << " at byte " << at << " was not detected";
    }
  }
}

// ---- the store ---------------------------------------------------------------

class SimStoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest -j runs each TEST as its own process.
    dir_ = fs::path(::testing::TempDir()) /
           ("dnnlife_sim_store_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  SimStore::Options store_options(std::size_t capacity_bytes = 0) const {
    return SimStore::Options{dir_.string(), capacity_bytes};
  }

  std::size_t count_files(const std::string& needle) const {
    std::size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir_))
      if (entry.is_regular_file() &&
          entry.path().filename().string().find(needle) != std::string::npos)
        ++count;
    return count;
  }

  fs::path dir_;
};

TEST_F(SimStoreFixture, PublishThenLookupAcrossInstancesHits) {
  const std::string fingerprint = "00c0ffee00c0ffee00c0ffee00c0ffee";
  const auto state = make_state(16, 32, 2, 5);
  {
    SimStore writer(store_options());
    EXPECT_EQ(writer.lookup(fingerprint), nullptr);  // cold: a miss
    EXPECT_TRUE(writer.publish(fingerprint, *state));
    EXPECT_TRUE(writer.contains(fingerprint));
    const SimStoreStats stats = writer.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.publishes, 1u);
    EXPECT_EQ(stats.hits, 0u);
  }
  // A fresh instance — as another process would see the directory.
  SimStore reader(store_options());
  const SimStore::StatePtr loaded = reader.lookup(fingerprint);
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(states_equal(*state, *loaded));
  const SimStoreStats stats = reader.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
  // No publish debris: exactly one committed entry, no tmp files.
  EXPECT_EQ(count_files(".simstate"), 1u);
  EXPECT_EQ(count_files(".tmp"), 0u);
}

TEST_F(SimStoreFixture, CorruptionCorpusDegradesToQuarantinedMisses) {
  const std::string fingerprint = "deadbeefdeadbeefdeadbeefdeadbeef";
  const auto state = make_state(8, 64, 2, 9);
  SimStore store(store_options());
  const std::string entry = store.entry_path(fingerprint);
  const std::string valid = serialize_simulation_state(*state);

  const auto write_entry = [&](const std::string& bytes) {
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Corpus: truncated file, flipped payload byte, stale format version,
  // junk that is not a simulation-state file at all.
  std::string truncated = valid.substr(0, valid.size() / 2);
  std::string flipped = valid;
  flipped[valid.size() / 2] = static_cast<char>(flipped[valid.size() / 2] ^ 1);
  std::string stale_version = valid;
  stale_version[16] = static_cast<char>(99);  // u32le version after 16B magic
  const std::vector<std::string> corpus = {truncated, flipped, stale_version,
                                           "not a simstate file"};
  std::uint64_t quarantined = 0;
  for (const std::string& damaged : corpus) {
    write_entry(damaged);
    EXPECT_EQ(store.lookup(fingerprint), nullptr)
        << "a damaged entry must be a miss, never a crash";
    ++quarantined;
    const SimStoreStats stats = store.stats();
    EXPECT_EQ(stats.quarantined, quarantined);
    EXPECT_EQ(stats.misses, quarantined);
    EXPECT_FALSE(fs::exists(entry))
        << "the damaged file must be moved aside, not re-probed forever";
    // The store stays fully usable: republish and hit.
    EXPECT_TRUE(store.publish(fingerprint, *state));
    EXPECT_NE(store.lookup(fingerprint), nullptr);
    fs::remove(entry);
  }
  // Every damaged file was preserved for inspection.
  std::size_t preserved = 0;
  for (const auto& file : fs::directory_iterator(dir_ / "quarantine"))
    if (file.is_regular_file()) ++preserved;
  EXPECT_EQ(preserved, corpus.size());
}

TEST_F(SimStoreFixture, StaleV1EntryIsQuarantinedOnceThenRepublished) {
  // A genuine v1 entry: the current payload under format version 1 with
  // v1's checksum (splitmix64 of FNV-1a over the framed bytes). No v1
  // reader exists, so it is a quarantined miss and is simulated again.
  const std::string fingerprint = "0badc0de0badc0de0badc0de0badc0de";
  const auto state = make_state(8, 64, 2, 4);
  std::string v1 = serialize_simulation_state(*state);
  v1.resize(v1.size() - 8);
  v1[16] = 1;  // u32le version after the 16-byte magic
  v1[17] = v1[18] = v1[19] = 0;
  util::append_u64le(v1, util::splitmix64(util::fnv1a64(v1)));

  SimStore store(store_options());
  const std::string entry = store.entry_path(fingerprint);
  {
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out.write(v1.data(), static_cast<std::streamsize>(v1.size()));
  }
  EXPECT_EQ(store.lookup(fingerprint), nullptr)
      << "a v1 entry must never be served";
  SimStoreStats stats = store.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_FALSE(fs::exists(entry));

  EXPECT_TRUE(store.publish(fingerprint, *state));
  const SimStore::StatePtr loaded = store.lookup(fingerprint);
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(states_equal(*state, *loaded));
  stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.quarantined, 1u) << "the v1 entry is quarantined once";
}

TEST_F(SimStoreFixture, ConcurrentPublishersConvergeOnOneValidEntry) {
  // Two store instances (two processes, as far as the directory protocol
  // is concerned) hammering the same fingerprint from several threads:
  // every publish is a whole-file rename, so readers always see a
  // complete entry and exactly one committed file survives.
  const std::string fingerprint = "0123456789abcdef0123456789abcdef";
  const auto state = make_state(16, 64, 2, 21);
  SimStore a(store_options());
  SimStore b(store_options());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      SimStore& store = (t % 2 == 0) ? a : b;
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(store.publish(fingerprint, *state));
        const SimStore::StatePtr read = store.lookup(fingerprint);
        if (read != nullptr) {
          EXPECT_TRUE(states_equal(*state, *read));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(count_files(".simstate"), 1u);
  EXPECT_EQ(count_files(".tmp"), 0u);
  EXPECT_EQ(a.stats().quarantined + b.stats().quarantined, 0u)
      << "concurrent whole-file publishes must never yield a torn entry";
  SimStore reader(store_options());
  const SimStore::StatePtr final_state = reader.lookup(fingerprint);
  ASSERT_NE(final_state, nullptr);
  EXPECT_TRUE(states_equal(*state, *final_state));
}

TEST_F(SimStoreFixture, GcEvictsOldestEntriesPastTheByteBudget) {
  const auto state = make_state(16, 32, 2, 2);
  const std::size_t entry_bytes = serialize_simulation_state(*state).size();
  // Room for two entries plus slack, not three.
  SimStore store(store_options(2 * entry_bytes + entry_bytes / 2));
  ASSERT_TRUE(store.publish("aa11", *state));
  ASSERT_TRUE(store.publish("bb22", *state));
  // Age the first two so eviction order is unambiguous even on coarse
  // filesystem timestamps.
  const auto now = fs::last_write_time(store.entry_path("bb22"));
  fs::last_write_time(store.entry_path("aa11"), now - std::chrono::hours(2));
  fs::last_write_time(store.entry_path("bb22"), now - std::chrono::hours(1));
  ASSERT_TRUE(store.publish("cc33", *state));  // overflows: GC runs
  EXPECT_FALSE(store.contains("aa11")) << "the oldest entry must be evicted";
  EXPECT_TRUE(store.contains("bb22"));
  EXPECT_TRUE(store.contains("cc33")) << "the just-published entry is kept";
  EXPECT_EQ(store.stats().gc_evictions, 1u);
  std::uintmax_t total = 0;
  for (const auto& file : fs::directory_iterator(dir_))
    if (file.path().extension() == ".simstate") total += file.file_size();
  EXPECT_LE(total, store.capacity_bytes());
}

TEST_F(SimStoreFixture, UnwritableDirectoryFailsUpFront) {
  const fs::path readonly = dir_ / "readonly";
  fs::create_directories(readonly);
  fs::permissions(readonly, fs::perms::owner_read | fs::perms::owner_exec,
                  fs::perm_options::replace);
  // Skip when running as root (permissions are advisory there).
  std::ofstream probe(readonly / "probe");
  const bool root_like = probe.good();
  probe.close();
  fs::remove(readonly / "probe");
  if (!root_like) {
    EXPECT_THROW(SimStore(SimStore::Options{(readonly / "sub").string(), 0}),
                 std::invalid_argument);
  }
  fs::permissions(readonly, fs::perms::owner_all, fs::perm_options::replace);
}

// ---- tiered runs -------------------------------------------------------------

ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.hardware = HardwareKind::kTpuNpu;
  spec.npu.array_dim = 32;
  spec.npu.fifo_tiles = 2;
  spec.threads = 1;
  spec.phases.push_back(ScenarioPhaseSpec{"custom_mnist", 2, {}});
  return spec;
}

TEST_F(SimStoreFixture, RunScenarioProbesCacheThenStoreAndWritesThrough) {
  const ScenarioSpec spec = tiny_spec();
  const ScenarioResult plain = run_scenario(spec);

  RunScenarioOptions options;
  options.sim_cache = std::make_shared<SimCache>(std::size_t{1} << 26);
  options.sim_store = std::make_shared<SimStore>(store_options());
  const ScenarioResult cold = run_scenario(spec, options);
  EXPECT_EQ(options.sim_cache->stats().misses, 1u);
  EXPECT_EQ(options.sim_store->stats().misses, 1u);
  EXPECT_EQ(options.sim_store->stats().publishes, 1u);
  EXPECT_EQ(options.sim_cache->stats().inserts, 1u);

  // Warm memory: the cache answers, the store is not touched again.
  const ScenarioResult warm_memory = run_scenario(spec, options);
  EXPECT_EQ(options.sim_cache->stats().hits, 1u);
  EXPECT_EQ(options.sim_store->stats().hits, 0u);

  // Fresh cache over the same directory (a new process): the store
  // answers and the hit is written through into the memory tier.
  RunScenarioOptions fresh;
  fresh.sim_cache = std::make_shared<SimCache>(std::size_t{1} << 26);
  fresh.sim_store = std::make_shared<SimStore>(store_options());
  const ScenarioResult warm_disk = run_scenario(spec, fresh);
  EXPECT_EQ(fresh.sim_store->stats().hits, 1u);
  EXPECT_EQ(fresh.sim_store->stats().publishes, 0u)
      << "a disk hit must not re-simulate or re-publish";
  EXPECT_EQ(fresh.sim_cache->stats().inserts, 1u);
  const ScenarioResult warm_both = run_scenario(spec, fresh);
  EXPECT_EQ(fresh.sim_cache->stats().hits, 1u);
  EXPECT_EQ(fresh.sim_store->stats().hits, 1u);

  // Identical numbers on every path.
  for (const ScenarioResult* result :
       {&cold, &warm_memory, &warm_disk, &warm_both}) {
    EXPECT_EQ(result->report.snm_stats.mean(), plain.report.snm_stats.mean());
    ASSERT_TRUE(result->lifetime.has_value());
    EXPECT_EQ(result->lifetime->device_lifetime_years,
              plain.lifetime->device_lifetime_years);
  }
}

// ---- store-aware sweeps ------------------------------------------------------

/// A 12-point environment-only grid sharing ONE simulation fingerprint
/// (mirrors test_sim_cache.cpp).
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

/// The same grid with a policy axis: two fingerprint groups of six.
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

TEST_F(SimStoreFixture, StoreOnlySingleFlightSimulatesOncePerFingerprint) {
  // No memory cache at all: the disk tier alone still gets single-flight
  // admission — one leader simulates and publishes durably, eleven
  // parked siblings are released straight into store hits.
  const ScenarioSuite suite = suite_from(env_grid_spec());
  ASSERT_EQ(suite.size(), 12u);
  SuiteRunOptions options;
  options.jobs = 12;
  options.threads_per_scenario = 1;
  options.sim_store = std::make_shared<SimStore>(store_options());
  const std::vector<SuiteOutcome> outcomes = suite.run(options);
  for (const SuiteOutcome& outcome : outcomes)
    EXPECT_TRUE(outcome.ok) << outcome.error;
  const SimStoreStats stats = options.sim_store->stats();
  EXPECT_EQ(stats.misses, 1u) << "a sibling raced past the single-flight gate";
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(stats.hits, 11u);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST_F(SimStoreFixture,
       WarmStoreSummariesMatchCacheOffByteForByteAtEveryExecutorSize) {
  // The acceptance bar of the disk tier: a second run over a warm store
  // simulates NOTHING (0 misses, 0 publishes) and emits the byte-exact
  // summary of a reuse-off run — for any executor size.
  const ScenarioSuite suite = suite_from(policy_grid_spec());
  ASSERT_EQ(suite.size(), 12u);
  SuiteSummaryInfo info;
  info.total_scenarios = suite.size();
  info.manifest_hash = suite.manifest_hash();
  info.include_timing = false;  // run properties must not leak into the
                                // byte-compare

  SuiteRunOptions off;
  off.jobs = 4;
  off.threads_per_scenario = 1;
  const std::string reference =
      suite_summary_json(make_suite_records(suite.run(off)), info);

  for (const unsigned workers : {1u, 2u, 0u}) {  // 0 = hardware concurrency
    util::Executor::configure_session(workers);
    const fs::path store_dir =
        dir_ / ("store_w" + std::to_string(workers));
    for (const bool warm : {false, true}) {
      SuiteRunOptions options;
      options.jobs = 4;
      options.threads_per_scenario = 1;
      // A fresh instance per run — cross-run reuse goes through the
      // directory, never through process state.
      options.sim_store = std::make_shared<SimStore>(
          SimStore::Options{store_dir.string(), 0});
      const std::string summary =
          suite_summary_json(make_suite_records(suite.run(options)), info);
      EXPECT_EQ(summary, reference)
          << "summary drifted at executor size " << workers << ", "
          << (warm ? "warm" : "cold") << " store";
      const SimStoreStats stats = options.sim_store->stats();
      if (warm) {
        EXPECT_EQ(stats.misses, 0u)
            << "a warm store must satisfy every point from disk";
        EXPECT_EQ(stats.publishes, 0u);
        EXPECT_EQ(stats.hits, 12u);
      } else {
        EXPECT_EQ(stats.misses, 2u);  // one per fingerprint group
        EXPECT_EQ(stats.publishes, 2u);
      }
    }
  }
  util::Executor::configure_session(0);  // restore hardware sizing
}

}  // namespace
}  // namespace dnnlife::core
