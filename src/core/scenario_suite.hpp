// Scenario sweeps: a directory of scenario JSON files run as one batch.
//
// The scenario layer made a single experiment declarative; a production
// parameter sweep is hundreds of such documents. ScenarioSuite is the
// batch entry point: glob a directory (or take an explicit file list),
// parse every document strictly up front — a typo fails the load, not the
// 400th scenario of an overnight sweep — then run the specs through
// core::SweepScheduler on the session-wide executor (jobs
// and per-scenario threads are concurrency budgets, not pools) and
// aggregate the outcomes into one CSV / JSON summary. Run-time failures (e.g. a
// lifetime threshold a model cannot reach) are captured per outcome so
// one bad point does not kill the sweep.
//
// Cross-machine sharding: a SuiteShard (--shard=K/N) selects every N-th
// entry of the stable suite order, so N machines split one sweep with no
// coordinator. Each shard's summary records the suite's manifest hash and
// the global index of every outcome; core/sweep_merge.hpp reassembles N
// shard summaries into the byte-identical aggregate a single-machine run
// would have produced.
//
// Layering: suite → scenario → workload → policy engines → simulators.
// This runner shards across cores; SuiteShard shards across machines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/sim_cache.hpp"
#include "core/sim_store.hpp"

namespace dnnlife::util {
class JsonValue;
}

namespace dnnlife::core {

class SweepJournal;

/// One loaded scenario of a suite.
struct SuiteEntry {
  std::string path;  ///< source file; synthetic "<name>.json" for generated specs
  ScenarioSpec spec;
  /// The exact document text (file bytes, or the generator's materialised
  /// output). Input to the suite's manifest hash, so a sweep loaded from a
  /// directory and the same sweep generated in memory hash identically.
  std::string document;
};

/// One machine's slice of a sweep: shard `index` (1-based) of `count`,
/// selecting entries index-1, index-1+count, ... of the suite order.
/// The default {1, 1} selects everything.
struct SuiteShard {
  /// The most shards one sweep splits into. The --shard flag,
  /// shard_selection, journals and summaries accept exactly the shards
  /// with 1 <= index <= count <= kMaxCount.
  static constexpr std::uint64_t kMaxCount = 1'000'000;

  unsigned index = 1;
  unsigned count = 1;

  /// The shard `index`/`count`; throws std::invalid_argument ("shard
  /// I/N is not valid") outside the bounds above. 64-bit arguments let a
  /// parser check a value before narrowing it.
  static SuiteShard checked(std::uint64_t index, std::uint64_t count);

  /// Whether the entry at suite position `position` belongs to this shard.
  bool contains(std::size_t position) const noexcept {
    return position % count == index - 1;
  }
};

/// The outcome of one scenario run.
struct SuiteOutcome {
  std::size_t index = 0;  ///< global position in the (unsharded) suite order
  std::string path;
  std::string name;
  bool ok = false;
  bool timed_out = false;                ///< !ok because the soft deadline passed
  unsigned attempts = 1;                 ///< attempts consumed (>= 1)
  std::string error;                     ///< failure message when !ok
  std::optional<ScenarioResult> result;  ///< present when ok
  double wall_seconds = 0.0;             ///< across all attempts
  /// Simulation fingerprint of the spec (core::simulation_fingerprint);
  /// equal fingerprints shared one simulation when a sim cache was active.
  std::string fingerprint;
};

/// Progress of a running suite, reported once per finished scenario.
struct SuiteProgress {
  std::size_t completed = 0;  ///< finished scenarios, this one included
  std::size_t total = 0;      ///< scenarios this run executes (the shard's share)
  const SuiteOutcome* outcome = nullptr;  ///< the scenario that just finished
};

/// Where in a run a fault-injection hook fires: at the start of attempt
/// `attempt` (1-based) of the scenario at global suite index `index`.
struct SuiteFaultContext {
  std::size_t index = 0;
  unsigned attempt = 1;
};

/// Deterministic fault-injection hook: runs at the start of each attempt,
/// on the pool task that then runs the scenario, inside the attempt's soft
/// deadline. A hook that throws simulates a failing attempt (exercising
/// the retry path), one that sleeps past the deadline simulates a stall
/// (the scenario then stops at its entry check), and one that calls _Exit
/// simulates a process crash (exercising journal resume). Production runs
/// leave it empty.
using SuiteFaultHook = std::function<void(const SuiteFaultContext&)>;

/// The settings of a sweep, defined once: SweepScheduler::Options is this
/// struct, and SuiteRunOptions adds the shard.
struct SweepOptions {
  /// Admission budget: points in flight at once (0 = hardware
  /// concurrency). A budget, not a pool size: slots no point holds are
  /// lent to the running points' stages (see SweepScheduler::stage_threads).
  unsigned jobs = 0;
  /// Override every spec's own `threads` (simulation + report evaluation),
  /// the floor of each stage's budget; 0 keeps the per-document values.
  unsigned threads_per_scenario = 0;
  /// Extra attempts after a failed or timed-out attempt (0 = fail fast).
  /// Every attempt starts from a fresh copy of the parsed spec, so no
  /// state leaks between attempts; the outcome records the attempts used.
  unsigned retries = 0;
  /// Soft per-attempt deadline in seconds, measured on the monotonic
  /// clock from the attempt's start, fault hook included (0 = none). Once
  /// it has passed, the attempt stops at its next stage boundary (see
  /// RunScenarioOptions::deadline) and is classified as `timeout`, so one
  /// slow point cannot hold up the shard for longer than one stage. Soft:
  /// a running stage is never interrupted.
  double soft_deadline_seconds = 0.0;
  /// Fault-injection hook for tests and `sweep_runner --inject-fault`.
  SuiteFaultHook fault_hook;
  /// Durable result journal (core/sweep_journal.hpp). Every fresh outcome
  /// is appended (flushed record by record) before it is announced, so a
  /// killed process leaves a resumable prefix; already-journaled indices
  /// are skipped by ScenarioSuite::run, and SweepScheduler::submit throws
  /// std::invalid_argument on one. ScenarioSuite::run also throws
  /// std::invalid_argument unless the journal header matches its suite
  /// and shard; the scheduler does not know what sweep the journal
  /// belongs to.
  SweepJournal* journal = nullptr;
  /// Invoked after each point finishes. Serialized internally, so a CLI
  /// can print from it without locking; must not throw and must not call
  /// into the scheduler.
  std::function<void(const SuiteProgress&)> progress;
  /// Progress denominator. 0 means the points submitted so far;
  /// ScenarioSuite::run sets its selection's size.
  std::size_t expected_total = 0;
  /// Shared duty-state cache (core/sim_cache.hpp): points whose specs
  /// share a simulation fingerprint simulate once and evaluate against
  /// the shared tracker state (see SweepScheduler's claims). Null disables
  /// reuse. Summaries are byte-identical either way (--omit-timing).
  /// Shared with the caller, who keeps it (and its counters) across runs.
  std::shared_ptr<SimCache> sim_cache;
  /// Disk tier under the cache (core/sim_store.hpp), with or without a
  /// memory cache: memory misses probe the store directory and fresh
  /// simulations are durably published to it, so re-runs, resumed crashes
  /// and sibling shards pointed at one shared directory reuse committed
  /// duty state across processes. Null disables the tier. Shared like the
  /// cache; summaries are byte-identical either way.
  std::shared_ptr<SimStore> sim_store;
};

struct SuiteRunOptions : SweepOptions {
  /// Run only this shard's selection of the suite.
  SuiteShard shard;
};

class ScenarioSuite {
 public:
  ScenarioSuite() = default;

  /// Load every *.json file of `directory` (sorted by path, so suite order
  /// — and therefore aggregation order — is stable across filesystems).
  /// Throws std::invalid_argument naming the file on any parse error, and
  /// when the directory holds no scenario documents at all.
  static ScenarioSuite from_directory(const std::string& directory);

  /// Load an explicit file list, in the given order.
  static ScenarioSuite from_files(const std::vector<std::string>& paths);

  /// The global indices shard selects from a suite of `size` entries:
  /// index-1, index-1+count, ... Shards of the same count are pairwise
  /// disjoint and together cover exactly [0, size). Throws
  /// std::invalid_argument on count == 0 or index outside [1, count].
  static std::vector<std::size_t> shard_selection(std::size_t size,
                                                  const SuiteShard& shard);

  void add(SuiteEntry entry) { entries_.push_back(std::move(entry)); }
  const std::vector<SuiteEntry>& entries() const noexcept { return entries_; }
  std::size_t size() const noexcept { return entries_.size(); }

  /// Stable 64-bit hex hash over every entry's (name, document) in suite
  /// order: two machines agree on it exactly when they loaded the same
  /// sweep in the same order, which is what makes shard summaries safely
  /// mergeable.
  std::string manifest_hash() const;

  /// Run the shard's scenarios, `jobs` at a time. Outcomes are returned in
  /// suite order regardless of completion order (each job fills its own
  /// slot), carrying their global suite index.
  std::vector<SuiteOutcome> run(const SuiteRunOptions& options = {}) const;

 private:
  std::vector<SuiteEntry> entries_;
};

/// Run in-memory specs as one suite (entries "<name>.json" without a
/// document, so payloads build once per key and points run concurrently)
/// and return each result in spec order. Throws std::runtime_error naming
/// the first spec that failed. For callers that print reports, not
/// summaries.
std::vector<ScenarioResult> run_specs(std::span<const ScenarioSpec> specs,
                                      const SuiteRunOptions& options = {});

/// One summary row: the whole-memory metrics of an outcome reduced to the
/// values the CSV/JSON emitters print. Built either from a live
/// SuiteOutcome or parsed back from a shard summary (core/sweep_merge.hpp);
/// both paths feed the same emitters, which is what makes a merged summary
/// byte-identical to a single-machine one. Absent metrics (failed or
/// dormant scenarios, infinite lifetimes) are NaN and render as CSV
/// empty / JSON null.
struct SuiteRecord {
  std::size_t index = 0;  ///< global suite index
  std::string path;
  std::string name;
  /// Simulation fingerprint (emitted when non-empty; absent in legacy
  /// summaries). sweep_merge passes it through untouched.
  std::string fingerprint;
  bool ok = false;
  bool timed_out = false;  ///< renders as status "timeout" (implies !ok)
  unsigned attempts = 1;   ///< emitted only when > 1, parsed back as given
  std::string error;
  std::uint64_t total_cells = 0;   ///< valid when ok
  std::uint64_t unused_cells = 0;  ///< valid when ok
  double snm_mean = 0.0, snm_max = 0.0;
  double duty_mean = 0.0, fraction_optimal = 0.0;
  double lifetime_years = 0.0, improvement_over_worst = 0.0;
  double fraction_of_ideal = 0.0;
  double wall_seconds = 0.0;
};

/// What a summary says about the sweep it belongs to, beyond the rows.
struct SuiteSummaryInfo {
  std::size_t total_scenarios = 0;  ///< full suite size across all shards
  std::string manifest_hash;        ///< "" omits the manifest object
  SuiteShard shard;                 ///< count == 1 → unsharded (no shard object)
  /// Wall-clock fields are nondeterministic; omit them (--omit-timing)
  /// when summaries must be byte-comparable across runs.
  bool include_timing = true;
  /// Global indices absent from a partial merge (sweep_merge
  /// --allow-partial). Non-empty → the JSON summary gains a "partial"
  /// header object listing them, so operators see exactly what to
  /// resubmit. Always empty for complete sweeps.
  std::vector<std::size_t> missing_indices;
  /// Simulation-reuse counters of the run's SimCache, surfaced in the
  /// summary object. Emitted only when include_timing is set: cache
  /// effectiveness is a run property (like wall time), and byte-compare
  /// gates diff cache-on vs cache-off summaries under --omit-timing.
  std::optional<SimCacheStats> sim_cache;
  /// Disk-tier counters of the run's SimStore, under the same
  /// include_timing rule as sim_cache.
  std::optional<SimStoreStats> sim_store;
};

SuiteRecord make_suite_record(const SuiteOutcome& outcome);
std::vector<SuiteRecord> make_suite_records(
    std::span<const SuiteOutcome> outcomes);

/// One record as the exact JSON object text the summary's "scenarios"
/// array carries. Shared by the summary emitter and the sweep journal
/// (core/sweep_journal.hpp), which is what makes a summary rebuilt from
/// journaled records byte-identical to one written live.
std::string suite_record_json(const SuiteRecord& record, bool include_timing);

/// Parse one record object back (the inverse of suite_record_json; also
/// the per-entry parser of core/sweep_merge.hpp). Throws
/// std::invalid_argument on malformed entries. When `has_timing` is given
/// it is set to whether the entry carried a wall_seconds field.
SuiteRecord parse_suite_record(const util::JsonValue& entry,
                               bool* has_timing = nullptr);

/// Write the one-line-per-scenario sweep summary as CSV (whole-memory
/// aging and lifetime numbers; failed scenarios keep their error message
/// and empty metric columns).
void write_suite_csv(const std::string& path,
                     std::span<const SuiteRecord> records,
                     const SuiteSummaryInfo& info);

/// The same summary as a JSON document: an optional "manifest"/"shard"
/// header, a "scenarios" array (one object per record, global index
/// included) and a "summary" object (counts, total wall time, min/max
/// device lifetime over the successful scenarios).
std::string suite_summary_json(std::span<const SuiteRecord> records,
                               const SuiteSummaryInfo& info);

}  // namespace dnnlife::core
