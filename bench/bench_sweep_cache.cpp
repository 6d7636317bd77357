// Cross-point simulation reuse: the duty-state cache (core/sim_cache.hpp)
// against the simulate-every-point baseline, on the canonical 12-point
// environment-axis grid (3 temperatures x 2 vdd x 2 activity scales over
// one GoogLeNet workload). Every point shares one simulation fingerprint
// — the axes are evaluation-time inputs — so the cached sweep simulates
// once and evaluates twelve times.
//
//   bench_sweep_cache [--jobs=N] [--json=PATH]
//
// --jobs defaults to 1: serial admission makes the wall-clock ratio a
// machine-independent measure of the work the cache removes (11 of 12
// simulations), instead of a function of how many cores happened to soak
// up the redundant ones. The bench hard-fails (exit 1) unless the two
// summaries (timing omitted) are byte-identical and the cache counters
// come out exactly hits=11 / misses=1 — the single-flight + determinism
// contract — so CI can gate on the exit code alone; --json adds the wall
// times for the regression gate against
// bench/bench_sweep_cache_reference.json.
// The disk tier (core/sim_store.hpp) is measured the same way: a cold
// run populates an empty store directory, then a warm run with a fresh
// SimStore instance must satisfy every point from disk (0 simulations)
// and reproduce the reuse-off summary byte-for-byte — the cross-run
// analogue of the in-memory gate.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/scenario_generator.hpp"
#include "core/scenario_suite.hpp"
#include "core/sim_cache.hpp"
#include "core/sim_store.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

constexpr const char* kSweepSpec = R"json({
  "name": "simcache",
  "base": {
    "hardware": "tpu-like-npu",
    "format": "int8-symmetric",
    "npu": {"array_dim": 128, "fifo_tiles": 2},
    "aging_model": "arrhenius-nbti",
    "phases": [{"network": "googlenet", "inferences": 20}],
    "regions": [
      {"name": "hot", "rows": 0.25,
       "policy": {"kind": "dnn-life", "trbg_bias": 0.7, "balancer_bits": 4}},
      {"name": "cold", "rows": 0.75, "policy": {"kind": "no-mitigation"}}
    ]
  },
  "axes": [
    {"parameter": "temperature_c", "values": [25, 55, 85]},
    {"parameter": "vdd", "values": [0.95, 1.0]},
    {"parameter": "activity_scale", "values": [0.5, 1.0]}
  ]
})json";

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dnnlife;
  unsigned jobs = 1;
  std::string json_path;
  util::FlagTable flags("bench_sweep_cache");
  flags.add(util::unsigned_flag("jobs", jobs, "concurrent-point budget"))
      .add(util::text_flag("json", "PATH", json_path, "results as JSON"));
  if (!flags.parse(argc, argv)) return 1;
  benchutil::print_heading(
      "Cross-point simulation reuse (12-point environment grid)");

  core::ScenarioSuite suite;
  for (core::GeneratedScenario& point :
       core::ScenarioGenerator::parse(kSweepSpec).generate())
    suite.add(core::SuiteEntry{point.name + ".json", std::move(point.spec),
                               std::move(point.document)});
  std::cout << suite.size() << " points, " << jobs << " job"
            << (jobs == 1 ? "" : "s") << "\n";

  core::SuiteSummaryInfo info;
  info.total_scenarios = suite.size();
  info.manifest_hash = suite.manifest_hash();
  info.include_timing = false;  // the byte-compare strips run properties

  core::SuiteRunOptions options;
  options.jobs = jobs;

  const auto off_start = std::chrono::steady_clock::now();
  const std::vector<core::SuiteOutcome> off_outcomes = suite.run(options);
  const double off_seconds = seconds_since(off_start);
  const std::string off_summary =
      suite_summary_json(make_suite_records(off_outcomes), info);

  options.sim_cache = std::make_shared<core::SimCache>(std::size_t{256}
                                                       << 20);
  const auto on_start = std::chrono::steady_clock::now();
  const std::vector<core::SuiteOutcome> on_outcomes = suite.run(options);
  const double on_seconds = seconds_since(on_start);
  const std::string on_summary =
      suite_summary_json(make_suite_records(on_outcomes), info);
  const core::SimCacheStats stats = options.sim_cache->stats();

  for (const core::SuiteOutcome& outcome : off_outcomes)
    if (!outcome.ok) {
      std::cerr << "FAIL: point '" << outcome.name
                << "' failed: " << outcome.error << "\n";
      return 1;
    }

  // Disk tier: cold run against an empty store directory, then a warm
  // run with a fresh instance — cross-run reuse must go through the
  // directory, never through process state.
  namespace fs = std::filesystem;
  const fs::path store_dir =
      fs::temp_directory_path() / "dnnlife_bench_sweep_cache_store";
  fs::remove_all(store_dir);
  options.sim_cache = nullptr;
  options.sim_store = std::make_shared<core::SimStore>(
      core::SimStore::Options{store_dir.string(), 0});
  const auto cold_start = std::chrono::steady_clock::now();
  const std::vector<core::SuiteOutcome> cold_outcomes = suite.run(options);
  const double store_cold_seconds = seconds_since(cold_start);
  const std::string cold_summary =
      suite_summary_json(make_suite_records(cold_outcomes), info);
  const core::SimStoreStats cold_stats = options.sim_store->stats();

  options.sim_store = std::make_shared<core::SimStore>(
      core::SimStore::Options{store_dir.string(), 0});
  const auto warm_start = std::chrono::steady_clock::now();
  const std::vector<core::SuiteOutcome> warm_outcomes = suite.run(options);
  const double store_warm_seconds = seconds_since(warm_start);
  const std::string warm_summary =
      suite_summary_json(make_suite_records(warm_outcomes), info);
  const core::SimStoreStats warm_stats = options.sim_store->stats();
  fs::remove_all(store_dir);

  const double speedup = on_seconds > 0.0 ? off_seconds / on_seconds : 0.0;
  const double warm_speedup =
      store_warm_seconds > 0.0 ? off_seconds / store_warm_seconds : 0.0;
  util::Table table({"path", "simulations", "wall [s]", "speedup"});
  table.add_row({"cache off", std::to_string(suite.size()),
                 util::Table::num(off_seconds, 3), "1.00"});
  table.add_row({"cache on",
                 std::to_string(static_cast<unsigned long long>(stats.misses)),
                 util::Table::num(on_seconds, 3),
                 util::Table::num(speedup, 2)});
  table.add_row(
      {"store cold",
       std::to_string(static_cast<unsigned long long>(cold_stats.misses)),
       util::Table::num(store_cold_seconds, 3),
       util::Table::num(store_cold_seconds > 0.0
                            ? off_seconds / store_cold_seconds
                            : 0.0,
                        2)});
  table.add_row(
      {"store warm",
       std::to_string(static_cast<unsigned long long>(warm_stats.misses)),
       util::Table::num(store_warm_seconds, 3),
       util::Table::num(warm_speedup, 2)});
  std::cout << table.to_string();
  std::cout << "cache: " << stats.hits << " hits, " << stats.misses
            << " misses, " << stats.evictions << " evictions, "
            << stats.entries << " resident\n";
  std::cout << "store: cold " << cold_stats.misses << " simulated + "
            << cold_stats.publishes << " published, warm " << warm_stats.hits
            << " hits / " << warm_stats.misses << " misses\n";

  bool failed = false;
  if (on_summary != off_summary) {
    std::cerr << "FAIL: cache-on summary is not byte-identical to the "
                 "cache-off summary (timing omitted)\n";
    failed = true;
  }
  if (stats.misses != 1 || stats.hits != 11) {
    std::cerr << "FAIL: expected exactly 1 simulation + 11 reuses for the "
                 "12-point single-fingerprint grid, got misses="
              << stats.misses << " hits=" << stats.hits << "\n";
    failed = true;
  }
  if (cold_summary != off_summary || warm_summary != off_summary) {
    std::cerr << "FAIL: store-backed summaries are not byte-identical to the "
                 "reuse-off summary (timing omitted)\n";
    failed = true;
  }
  if (warm_stats.misses != 0 || warm_stats.publishes != 0) {
    std::cerr << "FAIL: a warm store must satisfy every point from disk, got "
                 "misses="
              << warm_stats.misses << " publishes=" << warm_stats.publishes
              << "\n";
    failed = true;
  }
  if (!failed)
    std::cout << "summaries byte-identical; 1 simulation served all 12 "
                 "points; warm store re-simulated nothing\n";

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "cannot open '" << json_path << "' for writing\n";
      return 1;
    }
    json << "{\n  \"points\": " << suite.size() << ",\n"
         << "  \"jobs\": " << jobs << ",\n"
         << "  \"cache_off_seconds\": " << util::Table::num(off_seconds, 4)
         << ",\n"
         << "  \"cache_on_seconds\": " << util::Table::num(on_seconds, 4)
         << ",\n"
         << "  \"speedup\": " << util::Table::num(speedup, 3) << ",\n"
         << "  \"store_cold_seconds\": "
         << util::Table::num(store_cold_seconds, 4) << ",\n"
         << "  \"store_warm_seconds\": "
         << util::Table::num(store_warm_seconds, 4) << ",\n"
         << "  \"warm_speedup\": " << util::Table::num(warm_speedup, 3)
         << ",\n"
         << "  \"hits\": " << stats.hits << ",\n"
         << "  \"misses\": " << stats.misses << ",\n"
         << "  \"byte_identical\": " << (on_summary == off_summary ? "true"
                                                                   : "false")
         << "\n}\n";
    std::cout << "timings written to " << json_path << "\n";
  }
  return failed ? 1 : 0;
}
