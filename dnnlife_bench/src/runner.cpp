#include "runner.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "aging/lifetime.hpp"
#include "aging/model_registry.hpp"
#include "aging/snm_histogram.hpp"
#include "core/region_policy.hpp"
#include "core/sweep_journal.hpp"
#include "core/sweep_scheduler.hpp"
#include "core/workload.hpp"
#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/region_map.hpp"
#include "sim/tpu_npu.hpp"
#include "stats.hpp"
#include "util/check.hpp"

namespace dnnlife_bench {

namespace core = dnnlife::core;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<core::SuiteEntry> entries_of(
    const std::vector<core::GeneratedScenario>& points) {
  std::vector<core::SuiteEntry> entries;
  entries.reserve(points.size());
  for (const core::GeneratedScenario& point : points)
    entries.push_back(
        core::SuiteEntry{point.name + ".json", point.spec, point.document});
  return entries;
}

std::string manifest_hash_of(const std::vector<core::SuiteEntry>& entries) {
  core::ScenarioSuite suite;
  for (const core::SuiteEntry& entry : entries) suite.add(entry);
  return suite.manifest_hash();
}

/// How one pass executes: the scheduler budgets plus the optional store
/// and journal every point goes through.
struct Execution {
  unsigned jobs = 1;
  unsigned threads = 1;
  std::shared_ptr<core::SimStore> store;
  std::string journal_path;  ///< empty: no journal
};

std::optional<core::SweepJournal> open_journal(const Execution& execution,
                                               const std::string& manifest,
                                               std::size_t total) {
  if (execution.journal_path.empty()) return std::nullopt;
  core::SweepJournalHeader header;
  header.manifest_hash = manifest;
  header.total_scenarios = total;
  return core::SweepJournal::create(execution.journal_path, header);
}

PointRun point_run(const core::SuiteOutcome& outcome) {
  PointRun run;
  run.record = core::make_suite_record(outcome);
  run.record_json = core::suite_record_json(run.record, false);
  return run;
}

/// Digest the round's --omit-timing summary and check its journal.
void finish_round(Round& round, const std::vector<core::SuiteEntry>& entries,
                  const std::string& manifest, const Execution& execution) {
  std::vector<core::SuiteRecord> records;
  records.reserve(round.points.size());
  for (const PointRun& point : round.points) records.push_back(point.record);
  core::SuiteSummaryInfo info;
  info.total_scenarios = entries.size();
  info.manifest_hash = manifest;
  info.include_timing = false;
  round.digest = hex_digest(core::suite_summary_json(records, info));
  if (!execution.journal_path.empty()) {
    const std::size_t journaled =
        core::read_sweep_journal(execution.journal_path).records.size();
    if (journaled != entries.size())
      round.failures.push_back("journal holds " + std::to_string(journaled) +
                               " records, expected " +
                               std::to_string(entries.size()));
  }
}

core::SimStoreStats minus(const core::SimStoreStats& after,
                          const core::SimStoreStats& before) {
  core::SimStoreStats delta;
  delta.hits = after.hits - before.hits;
  delta.misses = after.misses - before.misses;
  delta.publishes = after.publishes - before.publishes;
  delta.publish_failures = after.publish_failures - before.publish_failures;
  delta.quarantined = after.quarantined - before.quarantined;
  return delta;
}

/// Exact store counters of a pass over `points` points that either all
/// simulate and publish (`simulating`) or all read the store.
void check_store(Round& round, const core::SimStoreStats& delta,
                 std::size_t points, bool simulating) {
  const std::uint64_t expected_hits = simulating ? 0 : points;
  const std::uint64_t expected_misses = simulating ? points : 0;
  if (delta.hits != expected_hits || delta.misses != expected_misses ||
      delta.publishes != expected_misses || delta.publish_failures != 0 ||
      delta.quarantined != 0)
    round.failures.push_back(
        "store counters: hits=" + std::to_string(delta.hits) +
        " misses=" + std::to_string(delta.misses) +
        " publishes=" + std::to_string(delta.publishes) +
        " publish_failures=" + std::to_string(delta.publish_failures) +
        " quarantined=" + std::to_string(delta.quarantined) +
        "; expected hits=" + std::to_string(expected_hits) +
        " misses=publishes=" + std::to_string(expected_misses));
}

Round execute(const std::vector<core::SuiteEntry>& entries,
              const std::string& manifest, const Execution& execution) {
  std::optional<core::SweepJournal> journal =
      open_journal(execution, manifest, entries.size());
  core::SweepScheduler::Options options;
  options.jobs = execution.jobs;
  options.threads_per_scenario = execution.threads;
  options.sim_store = execution.store;
  options.journal = journal ? &*journal : nullptr;
  options.expected_total = entries.size();

  Round round;
  std::vector<core::SuiteOutcome> outcomes;
  outcomes.reserve(entries.size());
  malloc_trim(0);
  reset_peak_rss();
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  {
    core::SweepScheduler scheduler(options);
    std::vector<core::SweepScheduler::Handle> handles;
    handles.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
      handles.push_back(scheduler.submit(entries[i], i));
    scheduler.wait_all();
    round.wall_s = seconds_since(start);
    round.cpu_s = cpu_seconds() - cpu_start;
    round.peak_rss_mb = peak_rss_mb();
    for (core::SweepScheduler::Handle& handle : handles)
      outcomes.push_back(handle.take_outcome());
  }
  for (const core::SuiteOutcome& outcome : outcomes)
    round.points.push_back(point_run(outcome));
  journal.reset();
  finish_round(round, entries, manifest, execution);
  return round;
}

// ---- the traced path: run_scenario re-composed from public calls ----------

/// Simulate `spec`'s write stream as core::run_scenario does, one span per
/// public call: network + streamer, codec, stream construction plus one
/// full write pass (which builds the row-payload cache the simulation then
/// replays), and the phased simulation.
std::shared_ptr<const core::SimulationState> simulate_traced(
    const core::ScenarioSpec& spec, SpanRecorder& spans, std::size_t point,
    std::ptrdiff_t parent, PointTrace& trace) {
  struct Pipeline {
    std::unique_ptr<dnnlife::dnn::Network> network;
    std::unique_ptr<dnnlife::dnn::WeightStreamer> streamer;
    std::unique_ptr<dnnlife::quant::WeightWordCodec> codec;
    std::unique_ptr<dnnlife::sim::WriteStream> stream;
  };
  std::map<std::string, Pipeline> pipelines;
  unsigned weight_bits = 0;
  for (const core::ScenarioPhaseSpec& phase : spec.phases) {
    if (pipelines.contains(phase.network)) continue;
    Pipeline pipeline;
    {
      const ScopedSpan span(spans, "dnn.network", point, parent);
      pipeline.network = std::make_unique<dnnlife::dnn::Network>(
          dnnlife::dnn::make_network(phase.network));
      pipeline.streamer =
          std::make_unique<dnnlife::dnn::WeightStreamer>(*pipeline.network);
    }
    {
      const ScopedSpan span(spans, "quant.codec_init", point, parent);
      pipeline.codec = std::make_unique<dnnlife::quant::WeightWordCodec>(
          *pipeline.streamer, spec.format);
    }
    {
      const ScopedSpan span(spans, "sim.payload_build", point, parent);
      switch (spec.hardware) {
        case core::HardwareKind::kBaseline:
          pipeline.stream = std::make_unique<dnnlife::sim::BaselineWeightStream>(
              *pipeline.codec, spec.baseline);
          break;
        case core::HardwareKind::kTpuNpu:
          pipeline.stream = std::make_unique<dnnlife::sim::NpuWeightStream>(
              *pipeline.codec, spec.npu);
          break;
      }
      pipeline.stream->for_each_write([](const dnnlife::sim::RowWriteEvent&) {});
    }
    trace.weights += pipeline.network->total_weights();
    weight_bits = pipeline.codec->bits();
    pipelines.emplace(phase.network, std::move(pipeline));
  }

  const dnnlife::sim::MemoryGeometry geometry =
      pipelines.at(spec.phases.front().network).stream->geometry();
  for (const auto& [name, pipeline] : pipelines) {
    const dnnlife::sim::MemoryGeometry other = pipeline.stream->geometry();
    DNNLIFE_EXPECTS(other.rows == geometry.rows &&
                        other.row_bits == geometry.row_bits,
                    "phases disagree on the memory geometry");
  }
  std::vector<core::ScenarioRegionSpec> regions = spec.regions;
  if (regions.empty()) regions.emplace_back();
  std::vector<std::pair<std::string, double>> fractions;
  std::vector<core::PolicyConfig> policies;
  for (const core::ScenarioRegionSpec& region : regions) {
    fractions.emplace_back(region.name, region.row_fraction);
    policies.push_back(region.policy);
    policies.back().weight_bits = weight_bits;
  }
  const core::RegionPolicyTable table(
      dnnlife::sim::MemoryRegionMap::from_fractions(geometry, fractions),
      std::move(policies));

  std::vector<core::WorkloadPhase> phases;
  for (const core::ScenarioPhaseSpec& phase : spec.phases) {
    const dnnlife::sim::WriteStream* stream =
        pipelines.at(phase.network).stream.get();
    phases.emplace_back(stream, phase.inferences, phase.environment);
    trace.row_writes += stream->writes_per_inference() * phase.inferences;
  }
  core::WorkloadOptions options;
  options.threads = spec.threads;
  options.use_reference_simulator = spec.use_reference_simulator;
  core::PhasedWorkloadResult phased = [&] {
    const ScopedSpan span(spans, "core.duty_sim", point, parent);
    return core::simulate_workload_phased(phases, table, options);
  }();
  auto state = std::make_shared<core::SimulationState>();
  state->geometry = geometry;
  state->regions = phased.combined.regions();
  for (dnnlife::aging::EnvironmentSegment& segment : phased.segments)
    state->segment_trackers.push_back(std::move(segment.tracker));
  return state;
}

/// Evaluate `state` under `spec` as core::run_scenario does: the aging
/// report (model construction included) and the lifetime report, one span
/// each.
core::ScenarioResult evaluate_traced(const core::ScenarioSpec& spec,
                                     const core::SimulationState& state,
                                     SpanRecorder& spans, std::size_t point,
                                     std::ptrdiff_t parent, PointTrace& trace) {
  namespace aging = dnnlife::aging;
  // The environment of every duty segment: consecutive active phases with
  // equal environments coalesce, dormant phases neither start nor split one.
  std::vector<aging::EnvironmentSpec> environments;
  for (const core::ScenarioPhaseSpec& phase : spec.phases) {
    aging::validate_environment(phase.environment);
    if (phase.inferences == 0) continue;
    if (environments.empty() || !(environments.back() == phase.environment))
      environments.push_back(phase.environment);
  }
  DNNLIFE_EXPECTS(!environments.empty(),
                  "the traced path needs at least one active phase");
  DNNLIFE_EXPECTS(environments.size() == state.segment_trackers.size(),
                  "simulation state disagrees with the segment partition");
  std::vector<aging::EnvironmentSegmentView> views;
  for (std::size_t i = 0; i < environments.size(); ++i)
    views.push_back(
        aging::EnvironmentSegmentView{&state.segment_trackers[i], environments[i]});
  trace.cell_segments = state.geometry.cells() * views.size();

  std::shared_ptr<const aging::DeviceAgingModel> model;
  aging::AgingReport report = [&] {
    const ScopedSpan span(spans, "aging.aging_report", point, parent);
    model = aging::make_aging_model(spec.aging_model, spec.snm,
                                    spec.aging_model_params);
    aging::AgingReportOptions options = spec.report;
    options.threads = spec.threads;
    return aging::make_aging_report(
        std::span<const aging::EnvironmentSegmentView>(views), *model, options);
  }();
  aging::LifetimeReport lifetime = [&] {
    const ScopedSpan span(spans, "aging.lifetime_report", point, parent);
    const aging::LifetimeModel lifetime_model(model, spec.lifetime);
    return aging::make_lifetime_report(
        std::span<const aging::EnvironmentSegmentView>(views), lifetime_model,
        spec.threads);
  }();
  return core::ScenarioResult{state.geometry, {}, std::move(report),
                              std::move(lifetime)};
}

/// One traced point: parse, fingerprint, store lookup, simulate + publish
/// on a miss, evaluate, journal append — the order of run_scenario and the
/// scheduler around it.
PointRun traced_point(const core::SuiteEntry& entry, std::size_t index,
                      const Execution& execution, core::SweepJournal* journal,
                      SpanRecorder& spans, std::size_t point,
                      PointTrace& trace) {
  const auto start = Clock::now();
  trace.point_span = spans.open("point", point, -1);
  const auto parent = static_cast<std::ptrdiff_t>(trace.point_span);
  core::SuiteOutcome outcome;
  outcome.index = index;
  outcome.path = entry.path;
  outcome.name = entry.spec.name;
  try {
    core::ScenarioSpec spec = [&] {
      const ScopedSpan span(spans, "core.parse", point, parent);
      return core::parse_scenario(entry.document);
    }();
    if (execution.threads != 0) spec.threads = execution.threads;
    {
      const ScopedSpan span(spans, "core.fingerprint", point, parent);
      outcome.fingerprint = core::simulation_fingerprint(spec);
    }
    core::SimStore::StatePtr state;
    if (execution.store) {
      const ScopedSpan span(spans, "store.lookup", point, parent);
      state = execution.store->lookup(outcome.fingerprint);
    }
    if (!state) {
      state = simulate_traced(spec, spans, point, parent, trace);
      if (execution.store) {
        const ScopedSpan span(spans, "store.publish", point, parent);
        execution.store->publish(outcome.fingerprint, *state);
      }
    }
    if (execution.store) {
      std::error_code error;
      const auto bytes =
          fs::file_size(execution.store->entry_path(outcome.fingerprint), error);
      if (!error) trace.entry_bytes = static_cast<double>(bytes);
    }
    outcome.result = evaluate_traced(spec, *state, spans, point, parent, trace);
    outcome.ok = true;
  } catch (const std::exception& error) {
    outcome.error = error.what();
  }
  outcome.wall_seconds = seconds_since(start);
  PointRun run = point_run(outcome);
  if (journal != nullptr) {
    const ScopedSpan span(spans, "journal.append", point, parent);
    journal->append(run.record);
  }
  spans.close(trace.point_span);
  return run;
}

Round execute_traced(const std::vector<core::SuiteEntry>& entries,
                     const std::string& manifest, const Execution& execution,
                     TracedRun& traced) {
  std::optional<core::SweepJournal> journal =
      open_journal(execution, manifest, entries.size());
  Round round;
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    PointTrace trace;
    round.points.push_back(traced_point(entries[i], i, execution,
                                        journal ? &*journal : nullptr,
                                        traced.spans, traced.points.size(),
                                        trace));
    traced.points.push_back(trace);
  }
  round.wall_s = seconds_since(start);
  round.cpu_s = cpu_seconds() - cpu_start;
  journal.reset();
  finish_round(round, entries, manifest, execution);
  return round;
}

std::shared_ptr<core::SimStore> open_store(const fs::path& directory) {
  return std::make_shared<core::SimStore>(
      core::SimStore::Options{directory.string(), 0});
}

}  // namespace

std::size_t Round::ok_points() const {
  return static_cast<std::size_t>(
      std::count_if(points.begin(), points.end(),
                    [](const PointRun& point) { return point.record.ok; }));
}

std::size_t Round::failed_points() const {
  return failures.empty() ? points.size() - ok_points() : points.size();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& time) {
    return static_cast<double>(time.tv_sec) +
           static_cast<double>(time.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB as well
}

Prepared set_up(const std::string& workload, std::uint64_t seed,
                unsigned workers, const fs::path& dir,
                const std::string& network) {
  Prepared prepared;
  prepared.workload = make_workload(workload, seed, workers, network);
  prepared.entries = entries_of(prepared.workload.points);
  prepared.manifest_hash = manifest_hash_of(prepared.entries);
  if (prepared.workload.store != StoreMode::kWarm) return prepared;
  prepared.warmup_entries = entries_of(prepared.workload.warmup);
  prepared.warmup_manifest_hash = manifest_hash_of(prepared.warmup_entries);
  prepared.store_dir = dir / "store";
  Execution execution;
  execution.threads = prepared.workload.threads;
  execution.store = open_store(prepared.store_dir);
  prepared.warmup = execute(prepared.warmup_entries,
                            prepared.warmup_manifest_hash, execution);
  check_store(prepared.warmup, execution.store->stats(),
              prepared.warmup_entries.size(), true);
  return prepared;
}

Round run_round(const Prepared& prepared, unsigned jobs, const fs::path& dir) {
  const Workload& workload = prepared.workload;
  Execution execution;
  execution.jobs = jobs;
  execution.threads = workload.threads;
  switch (workload.store) {
    case StoreMode::kNone:
      break;
    case StoreMode::kFreshPerRound:
      execution.store = open_store(dir / "store");
      break;
    case StoreMode::kWarm:
      execution.store = open_store(prepared.store_dir);
      break;
  }
  if (workload.journal) {
    fs::create_directories(dir);
    execution.journal_path = (dir / "journal.jsonl").string();
  }
  Round round = execute(prepared.entries, prepared.manifest_hash, execution);
  if (execution.store)
    check_store(round, execution.store->stats(), prepared.entries.size(),
                workload.store == StoreMode::kFreshPerRound);
  return round;
}

TracedRun run_traced(const Prepared& prepared, const fs::path& dir) {
  const Workload& workload = prepared.workload;
  TracedRun traced;
  Execution execution;
  execution.threads = workload.threads;
  if (workload.store != StoreMode::kNone)
    execution.store = open_store(dir / "store");
  if (workload.store == StoreMode::kWarm) {
    traced.warmup = execute_traced(prepared.warmup_entries,
                                   prepared.warmup_manifest_hash, execution,
                                   traced);
    check_store(traced.warmup, execution.store->stats(),
                prepared.warmup_entries.size(), true);
  }
  if (workload.journal) {
    fs::create_directories(dir);
    execution.journal_path = (dir / "journal.jsonl").string();
  }
  const core::SimStoreStats before =
      execution.store ? execution.store->stats() : core::SimStoreStats{};
  traced.round = execute_traced(prepared.entries, prepared.manifest_hash,
                                execution, traced);
  if (execution.store) {
    traced.store = execution.store->stats();
    check_store(traced.round, minus(traced.store, before),
                prepared.entries.size(),
                workload.store == StoreMode::kFreshPerRound);
  }
  return traced;
}

void check_same_records(const Round& untraced, Round& traced,
                        const std::string& what) {
  if (untraced.points.size() != traced.points.size()) {
    traced.failures.push_back(what + ": " + std::to_string(traced.points.size()) +
                              " traced records vs " +
                              std::to_string(untraced.points.size()));
    return;
  }
  for (std::size_t i = 0; i < traced.points.size(); ++i)
    if (traced.points[i].record_json != untraced.points[i].record_json)
      traced.failures.push_back(what + ": record " + std::to_string(i) +
                                " differs: traced " +
                                traced.points[i].record_json + " vs untraced " +
                                untraced.points[i].record_json);
}

namespace {

/// Median duration (ms) of the spans named `name`; 0 when none ran.
double median_span_ms(const std::vector<Span>& spans, std::string_view name) {
  std::vector<double> samples;
  for (const Span& span : spans)
    if (span.name == name) samples.push_back(span.milliseconds());
  return median(std::move(samples));
}

/// Nanoseconds the spans named in `names` took inside `point`'s span.
double point_stage_ns(const std::vector<Span>& spans, std::size_t point,
                      std::initializer_list<std::string_view> names) {
  double ns = 0.0;
  for (const Span& span : spans)
    if (span.parent == static_cast<std::ptrdiff_t>(point) &&
        std::find(names.begin(), names.end(), span.name) != names.end())
      ns += static_cast<double>(span.end_ns - span.start_ns);
  return ns;
}

/// Median over the traced points with a non-zero `per` of stage ns / per.
template <class Per>
double median_rate(const TracedRun& traced,
                   std::initializer_list<std::string_view> names, Per per) {
  std::vector<double> samples;
  for (const PointTrace& point : traced.points) {
    const double denominator = static_cast<double>(per(point));
    if (denominator > 0.0)
      samples.push_back(point_stage_ns(traced.spans.spans(), point.point_span,
                                       names) /
                        denominator);
  }
  return median(std::move(samples));
}

}  // namespace

std::vector<Metric> per_layer_metrics(const TracedRun& traced,
                                      const std::vector<Round>& untraced,
                                      const Round& serial, unsigned jobs) {
  const std::vector<Span>& spans = traced.spans.spans();
  std::vector<Metric> metrics;
  const auto add = [&](std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  };
  add("core.parse_ms", median_span_ms(spans, "core.parse"), "ms");
  add("core.fingerprint_ms", median_span_ms(spans, "core.fingerprint"), "ms");
  add("dnn.network_ms", median_span_ms(spans, "dnn.network"), "ms");
  add("quant.codec_init_ms", median_span_ms(spans, "quant.codec_init"), "ms");
  add("sim.payload_build_ms", median_span_ms(spans, "sim.payload_build"), "ms");
  add("sim.ns_per_weight",
      median_rate(traced, {"dnn.network", "quant.codec_init", "sim.payload_build"},
                  [](const PointTrace& p) { return p.weights; }),
      "ns");
  add("core.duty_sim_ms", median_span_ms(spans, "core.duty_sim"), "ms");
  add("core.duty_ns_per_row_write",
      median_rate(traced, {"core.duty_sim"},
                  [](const PointTrace& p) { return p.row_writes; }),
      "ns");
  add("store.lookup_ms", median_span_ms(spans, "store.lookup"), "ms");
  std::vector<double> entry_mb;
  for (const PointTrace& point : traced.points)
    if (point.entry_bytes > 0.0) entry_mb.push_back(point.entry_bytes * 1e-6);
  add("store.entry_mb", median(std::move(entry_mb)), "MB");
  const std::uint64_t lookups = traced.store.hits + traced.store.misses;
  add("store.hit_ratio",
      lookups == 0 ? 0.0
                   : static_cast<double>(traced.store.hits) /
                         static_cast<double>(lookups),
      "ratio");
  add("store.publish_ms", median_span_ms(spans, "store.publish"), "ms");
  add("store.publishes", static_cast<double>(traced.store.publishes), "count");
  add("journal.append_ms", median_span_ms(spans, "journal.append"), "ms");
  add("aging.aging_report_ms", median_span_ms(spans, "aging.aging_report"), "ms");
  add("aging.lifetime_report_ms",
      median_span_ms(spans, "aging.lifetime_report"), "ms");
  add("aging.ns_per_cell_segment",
      median_rate(traced, {"aging.aging_report", "aging.lifetime_report"},
                  [](const PointTrace& p) { return p.cell_segments; }),
      "ns");

  // Scheduler: how much of jobs x wall the untraced points kept busy, and
  // the untraced tail (resolved only from 100 samples on).
  double busy = 0.0, wall = 0.0;
  std::vector<double> point_ms;
  for (const Round& round : untraced) {
    wall += round.wall_s;
    for (const PointRun& point : round.points) {
      busy += point.record.wall_seconds;
      point_ms.push_back(point.record.wall_seconds * 1e3);
    }
  }
  add("sched.budget_utilisation", wall > 0.0 ? busy / (jobs * wall) : 0.0,
      "ratio");
  const Percentile p90 = percentile(std::move(point_ms), 0.9);
  add("sched.point_p90_ms", p90.value, "ms");
  add("sched.point_samples", static_cast<double>(p90.samples), "count");

  // Trace sanity: the worst point's share of wall time inside named spans,
  // and the traced round's wall time against the untraced jobs-1 round.
  double coverage = 1.0;
  for (const PointTrace& point : traced.points) {
    const Span& span = spans[point.point_span];
    const double total = static_cast<double>(span.end_ns - span.start_ns);
    double named = 0.0;
    for (const Span& child : spans)
      if (child.parent == static_cast<std::ptrdiff_t>(point.point_span))
        named += static_cast<double>(child.end_ns - child.start_ns);
    if (total > 0.0) coverage = std::min(coverage, named / total);
  }
  add("trace.coverage", coverage, "ratio");
  add("trace.overhead_pct",
      serial.wall_s > 0.0
          ? 100.0 * (traced.round.wall_s - serial.wall_s) / serial.wall_s
          : 0.0,
      "%");
  return metrics;
}

}  // namespace dnnlife_bench
