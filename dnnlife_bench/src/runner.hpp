// Executing a workload: set-up, untraced rounds, the traced run, the
// correctness checks and the metrics derived from them.
//
// Untraced rounds go through core::SweepScheduler exactly as sweep_runner
// does. The traced run re-composes every point from the library's public
// calls in run_scenario's order, timing each call as a span; its records
// must equal the untraced ones byte for byte (timing omitted), which is
// what shows the trace measured the same program.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario_suite.hpp"
#include "core/sim_store.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace dnnlife_bench {

/// What one executed point leaves behind.
struct PointRun {
  dnnlife::core::SuiteRecord record;
  std::string record_json;  ///< suite_record_json, timing omitted
};

/// One pass over a list of points.
struct Round {
  std::vector<PointRun> points;
  double wall_s = 0.0;  ///< first submission to last completion
  double cpu_s = 0.0;   ///< process user + sys time over the same interval
  double peak_rss_mb = 0.0;  ///< process peak resident set size during the round
  std::string digest;   ///< hex digest of the --omit-timing summary
  std::vector<std::string> failures;  ///< failed round-level checks

  std::size_t ok_points() const;
  /// Points that failed, or every point once a round-level check failed.
  std::size_t failed_points() const;
};

/// The per-point quantities the per-layer rates divide by.
struct PointTrace {
  std::size_t point_span = 0;       ///< index of the point's span
  std::uint64_t weights = 0;        ///< weights synthesised (0 on a store hit)
  std::uint64_t row_writes = 0;     ///< row writes simulated (0 on a store hit)
  std::uint64_t cell_segments = 0;  ///< cells x environment segments evaluated
  double entry_bytes = 0.0;         ///< store entry read or written (0 without a store)
};

/// A workload after set-up: documents parsed and, for kWarm, a store
/// directory holding the workload's simulation.
struct Prepared {
  Workload workload;
  std::vector<dnnlife::core::SuiteEntry> entries;
  std::vector<dnnlife::core::SuiteEntry> warmup_entries;
  std::string manifest_hash;
  std::string warmup_manifest_hash;
  std::filesystem::path store_dir;  ///< warmed store (kWarm), else empty
  Round warmup;                     ///< the warm-up pass (kWarm)
};

/// Generate and parse the workload and, for kWarm, warm a store under
/// `dir` by running the warm-up points through the scheduler.
Prepared set_up(const std::string& workload, std::uint64_t seed,
                unsigned workers, const std::filesystem::path& dir,
                const std::string& network = "googlenet");

/// One untraced round through core::SweepScheduler with `jobs` points in
/// flight. Fresh stores and journals go under `dir`.
Round run_round(const Prepared& prepared, unsigned jobs,
                const std::filesystem::path& dir);

struct TracedRun {
  SpanRecorder spans;
  Round warmup;  ///< traced warm-up into a fresh store (kWarm)
  Round round;
  std::vector<PointTrace> points;  ///< warm-up points first, then the round's
  dnnlife::core::SimStoreStats store;  ///< all traced lookups and publishes
};

/// The traced run: one point at a time, each re-composed from public
/// calls with a span per call. kWarm workloads re-warm a fresh store
/// under `dir` first (traced too), so set-up is traced like the points.
TracedRun run_traced(const Prepared& prepared, const std::filesystem::path& dir);

/// Compare `traced`'s records with `untraced`'s (timing omitted); every
/// difference is added to `traced.failures`, failing the traced round.
void check_same_records(const Round& untraced, Round& traced,
                        const std::string& what);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics of a traced run; `untraced` supplies the scheduler
/// utilisation and the tracing-overhead baseline (`serial`, a jobs-1
/// untraced round of the same points).
std::vector<Metric> per_layer_metrics(const TracedRun& traced,
                                      const std::vector<Round>& untraced,
                                      const Round& serial, unsigned jobs);

/// Process user + sys CPU seconds so far.
double cpu_seconds();
/// Restart the process's peak-RSS mark (Linux /proc/self/clear_refs).
void reset_peak_rss();
/// Peak resident set size since the last reset_peak_rss() (VmHWM), MiB;
/// the process-lifetime peak where the kernel offers no reset.
double peak_rss_mb();

}  // namespace dnnlife_bench
