// The benchmark's workloads: sweep documents generated from a seed.
//
// Each workload is one pass ("round") of generated scenario points plus
// the execution shape the benchmark runs them with. The program under test
// only ever sees the generated documents; the workload seed drives the
// dnn-life policy seeds and the jitter seeds, so one seed always yields
// byte-identical documents.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario_generator.hpp"

namespace dnnlife_bench {

/// How a workload uses the on-disk simulation store.
enum class StoreMode {
  kNone,           ///< no store: every point simulates
  kFreshPerRound,  ///< an empty store per round: every point simulates and publishes
  kWarm,           ///< warmed during set-up: every point reads the store
};

struct Workload {
  std::string name;
  /// One round, in submission order.
  std::vector<dnnlife::core::GeneratedScenario> points;
  /// Points simulated into the store during set-up (kWarm only); they
  /// share the round's simulation fingerprint.
  std::vector<dnnlife::core::GeneratedScenario> warmup;
  unsigned jobs = 1;     ///< points in flight
  unsigned threads = 1;  ///< per-point thread budget
  StoreMode store = StoreMode::kNone;
  bool journal = false;  ///< append every record to a fresh journal per round
};

/// The workload names, in the order the README documents them.
const std::vector<std::string>& workload_names();

/// Generate workload `name` for `seed` on an executor of `workers`
/// threads. `network` replaces GoogLeNet in every document (the tests run
/// the same shapes on a small network). Throws std::invalid_argument for
/// an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       unsigned workers,
                       const std::string& network = "googlenet");

}  // namespace dnnlife_bench
