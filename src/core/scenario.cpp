#include "core/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "aging/report_evaluator.hpp"
#include "core/policy_engine.hpp"
#include "core/sim_cache.hpp"
#include "core/sim_store.hpp"
#include "core/workload.hpp"
#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/tpu_npu.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dnnlife::core {

std::string to_string(HardwareKind kind) {
  switch (kind) {
    case HardwareKind::kBaseline: return "baseline-accelerator";
    case HardwareKind::kTpuNpu: return "tpu-like-npu";
  }
  return "unknown";
}

HardwareKind hardware_kind_from_string(std::string_view name) {
  for (const HardwareKind kind : {HardwareKind::kBaseline, HardwareKind::kTpuNpu}) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument(
      "unknown hardware kind '" + std::string(name) +
      "' (expected one of: baseline-accelerator, tpu-like-npu)");
}

namespace {

using util::JsonValue;
using util::check_members;

unsigned parse_bounded_uint(const JsonValue& value, const char* what,
                            std::uint64_t max) {
  const std::uint64_t parsed = value.as_uint();
  if (parsed > max)
    throw std::invalid_argument(std::string(what) + " " +
                                std::to_string(parsed) + " exceeds " +
                                std::to_string(max));
  return static_cast<unsigned>(parsed);
}

PolicyConfig parse_policy(const JsonValue& object) {
  // Deliberately no "weight_bits" member: a scenario's rotation
  // granularity is always the codec's weight word width (run_scenario
  // sets it), so accepting an override here would be silently ignored.
  check_members(object, "policy",
                {"kind", "reset_each_inference", "trbg_bias",
                 "bias_balancing", "balancer_bits", "seed"});
  PolicyConfig policy;
  policy.kind = object.at("kind").as_string();
  PolicyRegistry::instance().at(policy.kind);  // unknown names fail here
  if (const JsonValue* v = object.find("reset_each_inference"))
    policy.reset_each_inference = v->as_bool();
  if (const JsonValue* v = object.find("trbg_bias"))
    policy.trbg_bias = v->as_number();
  if (const JsonValue* v = object.find("bias_balancing"))
    policy.bias_balancing = v->as_bool();
  if (const JsonValue* v = object.find("balancer_bits"))
    policy.balancer_bits = parse_bounded_uint(*v, "balancer_bits", 31);
  if (const JsonValue* v = object.find("seed")) policy.seed = v->as_uint();
  validate_policy_config(policy);
  return policy;
}

aging::EnvironmentSpec parse_environment(const JsonValue& object) {
  check_members(object, "environment",
                {"temperature_c", "vdd", "activity_scale"});
  aging::EnvironmentSpec env;
  for (const EnvParameter& parameter : kEnvParameters)
    if (const JsonValue* v = object.find(parameter.name))
      env.*parameter.field =
          v->as_number_in(parameter.lo, parameter.hi, parameter.name);
  aging::validate_environment(env);
  return env;
}

ScenarioPhaseSpec parse_phase(const JsonValue& object) {
  check_members(object, "phase", {"network", "inferences", "environment"});
  ScenarioPhaseSpec phase;
  phase.network = object.at("network").as_string();
  if (const JsonValue* v = object.find("inferences"))
    phase.inferences = parse_bounded_uint(*v, "inferences", 1u << 30);
  if (const JsonValue* v = object.find("environment"))
    phase.environment = parse_environment(*v);
  return phase;
}

ScenarioRegionSpec parse_region(const JsonValue& object) {
  check_members(object, "region", {"name", "rows", "policy"});
  ScenarioRegionSpec region;
  region.name = object.at("name").as_string();
  region.row_fraction = object.at("rows").as_number();
  // Required: a region without an explicit policy would silently run
  // unmitigated — the opposite of what a forgotten member likely meant.
  region.policy = parse_policy(object.at("policy"));
  return region;
}

void parse_baseline(const JsonValue& object,
                    sim::BaselineAcceleratorConfig& config) {
  check_members(object, "baseline",
                {"weight_memory_bytes", "double_buffered",
                 "compute_weighted_residency"});
  if (const JsonValue* v = object.find("weight_memory_bytes"))
    config.weight_memory_bytes = v->as_uint();
  if (const JsonValue* v = object.find("double_buffered"))
    config.double_buffered = v->as_bool();
  if (const JsonValue* v = object.find("compute_weighted_residency"))
    config.compute_weighted_residency = v->as_bool();
}

void parse_npu(const JsonValue& object, sim::TpuNpuConfig& config) {
  check_members(object, "npu", {"array_dim", "fifo_tiles"});
  if (const JsonValue* v = object.find("array_dim"))
    config.array_dim = parse_bounded_uint(*v, "array_dim", 1u << 16);
  if (const JsonValue* v = object.find("fifo_tiles"))
    config.fifo_tiles = parse_bounded_uint(*v, "fifo_tiles", 1u << 16);
}

void parse_report(const JsonValue& object, aging::AgingReportOptions& report) {
  check_members(object, "report", {"years", "optimal_tolerance"});
  if (const JsonValue* v = object.find("years")) report.years = v->as_number();
  if (const JsonValue* v = object.find("optimal_tolerance"))
    report.optimal_tolerance = v->as_number();
}

void parse_lifetime(const JsonValue& object, aging::LifetimeParams& lifetime) {
  check_members(object, "lifetime", {"snm_failure_threshold"});
  if (const JsonValue* v = object.find("snm_failure_threshold"))
    lifetime.snm_failure_threshold =
        v->as_number_in(1e-6, 100.0, "snm_failure_threshold");
}

void parse_snm(const JsonValue& object, aging::SnmParams& snm) {
  check_members(object, "snm",
                {"snm_at_balanced", "snm_at_full_stress", "t_ref_years",
                 "time_exponent"});
  if (const JsonValue* v = object.find("snm_at_balanced"))
    snm.snm_at_balanced = v->as_number();
  if (const JsonValue* v = object.find("snm_at_full_stress"))
    snm.snm_at_full_stress = v->as_number();
  if (const JsonValue* v = object.find("t_ref_years"))
    snm.t_ref_years = v->as_number();
  if (const JsonValue* v = object.find("time_exponent"))
    snm.time_exponent = v->as_number();
}

}  // namespace

ScenarioSpec parse_scenario(const std::string& json_text) {
  const JsonValue root = JsonValue::parse(json_text);
  check_members(root, "scenario",
                {"name", "format", "hardware", "baseline", "npu", "phases",
                 "regions", "threads", "use_reference_simulator", "report",
                 "snm", "aging_model", "aging_model_params", "lifetime"});
  ScenarioSpec spec;
  if (const JsonValue* v = root.find("name")) spec.name = v->as_string();
  if (const JsonValue* v = root.find("format"))
    spec.format = quant::weight_format_from_string(v->as_string());
  if (const JsonValue* v = root.find("hardware"))
    spec.hardware = hardware_kind_from_string(v->as_string());
  if (const JsonValue* v = root.find("baseline"))
    parse_baseline(*v, spec.baseline);
  if (const JsonValue* v = root.find("npu")) parse_npu(*v, spec.npu);
  for (const JsonValue& phase : root.at("phases").items())
    spec.phases.push_back(parse_phase(phase));
  if (spec.phases.empty())
    throw std::invalid_argument("scenario needs at least one phase");
  if (const JsonValue* v = root.find("regions"))
    for (const JsonValue& region : v->items())
      spec.regions.push_back(parse_region(region));
  if (const JsonValue* v = root.find("threads"))
    spec.threads = parse_bounded_uint(*v, "threads", 1u << 10);
  if (const JsonValue* v = root.find("use_reference_simulator"))
    spec.use_reference_simulator = v->as_bool();
  if (const JsonValue* v = root.find("report")) parse_report(*v, spec.report);
  if (const JsonValue* v = root.find("snm")) parse_snm(*v, spec.snm);
  if (const JsonValue* v = root.find("aging_model")) {
    spec.aging_model = v->as_string();
    aging::AgingModelRegistry::instance().at(spec.aging_model);
  }
  if (const JsonValue* v = root.find("aging_model_params"))
    for (const auto& [key, value] : v->members())
      spec.aging_model_params.emplace(key, value.as_number());
  if (const JsonValue* v = root.find("lifetime"))
    parse_lifetime(*v, spec.lifetime);
  if (!spec.aging_model_params.empty()) {
    // Surface unknown-knob and out-of-range errors at parse time, where
    // they read as document errors, not deep inside a sweep run.
    aging::make_aging_model(spec.aging_model, spec.snm,
                            spec.aging_model_params);
  }
  return spec;
}

namespace {

/// The spec's region list with the empty-list default resolved, so the
/// fingerprint and the simulation agree on what actually runs.
std::vector<ScenarioRegionSpec> resolved_regions(const ScenarioSpec& spec) {
  if (!spec.regions.empty()) return spec.regions;
  return {ScenarioRegionSpec{}};
}

/// The environment of every duty segment the phased simulation produces,
/// in order: consecutive active phases with equal environments coalesce
/// (exactly simulate_workload_segments's rule — dormant phases neither
/// start nor split a segment). Empty when every phase is dormant.
std::vector<aging::EnvironmentSpec> segment_environments(
    const ScenarioSpec& spec) {
  std::vector<aging::EnvironmentSpec> environments;
  for (const ScenarioPhaseSpec& phase : spec.phases) {
    if (phase.inferences == 0) continue;
    if (environments.empty() || !(environments.back() == phase.environment))
      environments.push_back(phase.environment);
  }
  return environments;
}

void fingerprint_field(std::string& text, std::string_view tag,
                       std::string_view value) {
  text += tag;
  text += '=';
  text += value;
  text += ';';
}

void fingerprint_field(std::string& text, std::string_view tag,
                       std::uint64_t value) {
  fingerprint_field(text, tag, std::to_string(value));
}

void fingerprint_field(std::string& text, std::string_view tag, bool value) {
  fingerprint_field(text, tag, value ? std::string_view("1")
                                     : std::string_view("0"));
}

/// Doubles enter the fingerprint as their exact bit pattern — no decimal
/// formatting, so the hash is stable across libc implementations.
void fingerprint_field_f64(std::string& text, std::string_view tag,
                           double value) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  fingerprint_field(text, tag, std::string_view(hex, 16));
}

}  // namespace

std::string simulation_fingerprint(const ScenarioSpec& spec) {
  // Canonical text over the stream-affecting fields. Every ScenarioSpec
  // member is either serialized here or listed as evaluation-only in the
  // header comment; the field-inventory test pins the struct sizes so an
  // unclassified addition fails loudly.
  std::string text;
  text.reserve(256);
  fingerprint_field(text, "v", std::uint64_t{1});
  fingerprint_field(text, "format", quant::to_string(spec.format));
  fingerprint_field(text, "hardware", to_string(spec.hardware));
  switch (spec.hardware) {
    // Only the *active* hardware config is hashed — the dormant one is
    // dead state.
    case HardwareKind::kBaseline:
      fingerprint_field(text, "hw.wmem", spec.baseline.weight_memory_bytes);
      fingerprint_field(text, "hw.amem",
                        spec.baseline.activation_memory_bytes);
      fingerprint_field(text, "hw.pe", std::uint64_t{spec.baseline.pe_count});
      fingerprint_field(text, "hw.mul",
                        std::uint64_t{spec.baseline.multipliers_per_pe});
      fingerprint_field(text, "hw.cwr",
                        spec.baseline.compute_weighted_residency);
      fingerprint_field(text, "hw.dbuf", spec.baseline.double_buffered);
      break;
    case HardwareKind::kTpuNpu:
      fingerprint_field(text, "hw.dim", std::uint64_t{spec.npu.array_dim});
      fingerprint_field(text, "hw.fifo", std::uint64_t{spec.npu.fifo_tiles});
      fingerprint_field(text, "hw.amem", spec.npu.activation_memory_bytes);
      break;
  }
  fingerprint_field(text, "refsim", spec.use_reference_simulator);
  // Phases: network and inference count of every phase in order — dormant
  // phases included, because per-phase policy randomness derives from the
  // *original* phase index (see simulate_workload_segments), so a dormant
  // phase shifts its successors' seeds by occupying an index. The
  // environment-coalescing partition (which active phases share a duty
  // segment) is structural: it decides how many trackers exist and which
  // phases merge. The environment *values* are evaluation-time inputs and
  // stay out — that exclusion is the whole point of the cache.
  fingerprint_field(text, "phases", std::uint64_t{spec.phases.size()});
  int segment = -1;
  const aging::EnvironmentSpec* last_environment = nullptr;
  for (const ScenarioPhaseSpec& phase : spec.phases) {
    fingerprint_field(text, "p.net", phase.network);
    fingerprint_field(text, "p.inf", std::uint64_t{phase.inferences});
    if (phase.inferences == 0) {
      fingerprint_field(text, "p.seg", std::string_view("-"));
      continue;
    }
    if (last_environment == nullptr ||
        !(*last_environment == phase.environment))
      ++segment;
    last_environment = &phase.environment;
    fingerprint_field(text, "p.seg", std::uint64_t(segment));
  }
  // Regions and their policies, with the empty-list default resolved.
  // PolicyConfig::weight_bits is excluded: run_scenario overwrites it
  // with the codec's width, which the format field already pins.
  const std::vector<ScenarioRegionSpec> regions = resolved_regions(spec);
  fingerprint_field(text, "regions", std::uint64_t{regions.size()});
  for (const ScenarioRegionSpec& region : regions) {
    fingerprint_field(text, "r.name", region.name);
    fingerprint_field_f64(text, "r.rows", region.row_fraction);
    fingerprint_field(text, "r.policy", region.policy.kind);
    fingerprint_field(text, "r.reset", region.policy.reset_each_inference);
    fingerprint_field_f64(text, "r.trbg", region.policy.trbg_bias);
    fingerprint_field(text, "r.bal", region.policy.bias_balancing);
    fingerprint_field(text, "r.balbits",
                      std::uint64_t{region.policy.balancer_bits});
    fingerprint_field(text, "r.seed", region.policy.seed);
  }
  // Two independently-seeded FNV-1a streams (distinct offset bases) over
  // the same text, each finished with a splitmix64 avalanche: a 128-bit
  // content address, so birthday collisions are out of reach for any
  // realistic sweep size. evaluate_scenario still cross-checks the
  // segment-partition shape against the cached state as a backstop.
  const std::uint64_t lo = util::splitmix64(util::fnv1a64(text));
  const std::uint64_t hi =
      util::splitmix64(util::fnv1a64(text, 0x6c62272e07bb0142ULL));
  char digest[33];
  std::snprintf(digest, sizeof digest, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(digest, 32);
}

namespace {

/// The dataflow of the spec's active hardware.
sim::DataflowConfig scenario_dataflow(const ScenarioSpec& spec) {
  return spec.hardware == HardwareKind::kBaseline
             ? sim::baseline_dataflow(spec.baseline)
             : sim::npu_dataflow(spec.npu);
}

std::string rows_key(const ScenarioSpec& spec, const std::string& network) {
  return sim::EncodedRows::key_of(network, dnn::WeightGenConfig{}, spec.format,
                                  scenario_dataflow(spec));
}

/// A stage boundary of run_scenario: stop here once the deadline passed.
void check_deadline(const RunScenarioOptions& options) {
  if (std::chrono::steady_clock::now() >= options.deadline)
    throw DeadlineExceeded();
}

/// A stage boundary that runs work: check the deadline, then return the
/// stage's thread budget.
unsigned stage_budget(const ScenarioSpec& spec,
                      const RunScenarioOptions& options) {
  check_deadline(options);
  return options.stage_threads ? options.stage_threads(spec.threads)
                               : spec.threads;
}

/// Simulate the spec's write stream end-to-end and commit the duty state:
/// build one stream per distinct network (hardware config shared, so all
/// phases target the same physical memory), resolve the region → policy
/// table and simulate the per-segment trackers — all evaluation needs
/// besides the geometry and the table's region tags.
/// This is the expensive half of run_scenario and the unit the SimCache
/// shares across points; the row payloads under it come prebuilt from
/// `options` when a scheduler shares them. The streams are the only
/// owners this function adds, so payloads nobody else holds are freed
/// before evaluation.
std::shared_ptr<const SimulationState> simulate_scenario(
    const ScenarioSpec& spec, const RunScenarioOptions& options) {
  std::map<std::string, std::unique_ptr<sim::WriteStream>> streams;
  unsigned weight_bits = 0;
  for (const ScenarioPhaseSpec& phase : spec.phases) {
    if (streams.contains(phase.network)) continue;
    std::shared_ptr<const sim::EncodedRows> rows;
    if (options.lookup_encoded_rows)
      rows = options.lookup_encoded_rows(rows_key(spec, phase.network));
    if (!rows) {
      const unsigned threads = stage_budget(spec, options);
      const dnn::Network network = dnn::make_network(phase.network);
      const dnn::WeightStreamer streamer(network);
      const quant::WeightWordCodec codec(streamer, spec.format);
      rows = sim::EncodedRows::build(codec, scenario_dataflow(spec), threads);
      if (options.publish_encoded_rows) options.publish_encoded_rows(rows);
    }
    weight_bits = rows->bits();
    std::unique_ptr<sim::WriteStream> stream;
    switch (spec.hardware) {
      case HardwareKind::kBaseline:
        stream = std::make_unique<sim::BaselineWeightStream>(std::move(rows),
                                                             spec.baseline);
        break;
      case HardwareKind::kTpuNpu:
        stream = std::make_unique<sim::NpuWeightStream>(std::move(rows),
                                                        spec.npu);
        break;
    }
    streams.emplace(phase.network, std::move(stream));
  }

  // simulate_workload_segments rejects phases whose geometries differ.
  const sim::MemoryGeometry geometry =
      streams.at(spec.phases.front().network)->geometry();

  // Resolve the region → policy table; the barrel shifter rotates at
  // weight-word granularity, so every policy inherits the codec's width.
  std::vector<std::pair<std::string, double>> fractions;
  std::vector<PolicyConfig> policies;
  for (const ScenarioRegionSpec& region : resolved_regions(spec)) {
    fractions.emplace_back(region.name, region.row_fraction);
    policies.push_back(region.policy);
  }
  for (PolicyConfig& policy : policies) policy.weight_bits = weight_bits;
  const RegionPolicyTable table(
      sim::MemoryRegionMap::from_fractions(geometry, fractions),
      std::move(policies));

  std::vector<WorkloadPhase> phases;
  phases.reserve(spec.phases.size());
  for (const ScenarioPhaseSpec& phase : spec.phases)
    phases.push_back(WorkloadPhase{streams.at(phase.network).get(),
                                   phase.inferences, phase.environment});

  WorkloadOptions workload;
  workload.use_reference_simulator = spec.use_reference_simulator;
  workload.threads = stage_budget(spec, options);
  std::vector<aging::EnvironmentSegment> segments =
      simulate_workload_segments(phases, table, workload);
  auto state = std::make_shared<SimulationState>();
  state->geometry = geometry;
  state->regions = table.cell_regions();
  state->segment_trackers.reserve(segments.size());
  for (aging::EnvironmentSegment& segment : segments)
    state->segment_trackers.push_back(std::move(segment.tracker));
  return state;
}

/// The evaluation half of run_scenario: re-attach the spec's environment
/// timeline to the committed duty state (owned or cache-shared — the
/// aging fold consumes the same tracker bits either way, so the report is
/// byte-identical) and run the aging/lifetime pipeline.
ScenarioResult evaluate_scenario(const ScenarioSpec& spec,
                                 const SimulationState& state,
                                 const RunScenarioOptions& options) {
  // The simulation validates phase environments; a cache hit skips it, so
  // keep the rejection behaviour identical here (idempotent on a miss).
  for (const ScenarioPhaseSpec& phase : spec.phases)
    aging::validate_environment(phase.environment);
  ScenarioResult result{state.geometry, {},
                        aging::AgingReport{{0.0, 1.0, 1}, {}, {}, 0, 0, 0.0,
                                           {}},
                        std::nullopt};
  result.phase_labels.reserve(spec.phases.size());
  for (const ScenarioPhaseSpec& phase : spec.phases) {
    std::string label =
        phase.network + " x " + std::to_string(phase.inferences);
    if (!aging::is_nominal(phase.environment)) {
      std::ostringstream env;
      env.precision(3);
      env << " @ " << phase.environment.temperature_c << "C";
      if (phase.environment.vdd != aging::kNominalVdd)
        env << ", " << phase.environment.vdd << " vdd";
      if (phase.environment.activity_scale != 1.0)
        env << ", " << phase.environment.activity_scale << " activity";
      label += env.str();
    }
    result.phase_labels.push_back(std::move(label));
  }

  const std::shared_ptr<const aging::DeviceAgingModel> model =
      aging::make_aging_model(spec.aging_model, spec.snm,
                              spec.aging_model_params);
  // The scenario's thread budget covers report evaluation too: the
  // per-cell model solves shard across the stage's budget (bit-identical
  // for any value).
  aging::AgingReportOptions report = spec.report;
  report.threads = stage_budget(spec, options);
  if (state.segment_trackers.empty()) {
    // Every phase dormant: an all-unused report, no lifetime to solve.
    // The zero tracker is not cached — it rebuilds from the shape.
    aging::DutyCycleTracker combined(state.geometry.cells());
    combined.set_regions(state.regions);
    const aging::EnvironmentSegmentView segment{&combined, {}};
    result.report = make_aging_report({&segment, 1}, *model, report);
    return result;
  }
  const std::vector<aging::EnvironmentSpec> environments =
      segment_environments(spec);
  // Backstop against a (astronomically unlikely) fingerprint collision or
  // a stale cache: equal fingerprints guarantee an equal partition shape.
  DNNLIFE_EXPECTS(environments.size() == state.segment_trackers.size(),
                  "cached simulation state disagrees with the spec's "
                  "segment partition");
  std::vector<aging::EnvironmentSegmentView> views;
  views.reserve(environments.size());
  for (std::size_t i = 0; i < environments.size(); ++i)
    views.push_back(aging::EnvironmentSegmentView{&state.segment_trackers[i],
                                                  environments[i]});
  // One history table serves both reports: the state is keyed once.
  const aging::HistoryTable histories(views);
  result.report = make_aging_report(views, histories, *model, report);
  const aging::LifetimeModel lifetime(model, spec.lifetime);
  result.lifetime = make_lifetime_report(views, histories, lifetime,
                                         stage_budget(spec, options));
  return result;
}

}  // namespace

std::vector<std::string> encoded_rows_keys(const ScenarioSpec& spec) {
  std::vector<std::string> keys;
  for (const ScenarioPhaseSpec& phase : spec.phases) {
    std::string key = rows_key(spec, phase.network);
    if (std::find(keys.begin(), keys.end(), key) == keys.end())
      keys.push_back(std::move(key));
  }
  return keys;
}

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunScenarioOptions& options) {
  DNNLIFE_EXPECTS(!spec.phases.empty(), "scenario needs at least one phase");
  check_deadline(options);
  if (!options.sim_cache && !options.sim_store)
    return evaluate_scenario(spec, *simulate_scenario(spec, options), options);
  const std::string fingerprint = simulation_fingerprint(spec);
  SimCache::StatePtr state =
      options.sim_cache ? options.sim_cache->lookup(fingerprint) : nullptr;
  if (!state && options.sim_store) {
    // Memory miss: probe the disk tier. Invalid entries come back as
    // misses (quarantined inside the store), never as errors.
    state = options.sim_store->lookup(fingerprint);
  }
  if (!state) {
    // Both tiers missed: simulate, then publish to disk *before* the
    // memory insert — the SweepScheduler releases parked same-fingerprint
    // siblings only after this call returns, so by then the entry is
    // durable and visible to sibling shards sharing the directory.
    state = simulate_scenario(spec, options);
    if (options.sim_store) options.sim_store->publish(fingerprint, *state);
  }
  if (options.sim_cache) {
    // Write-through: disk hits and fresh simulations both land in the
    // memory tier. insert is first-wins, so a concurrent racer of the
    // same fingerprint converges on one canonical state (the
    // SweepScheduler's single-flight parking avoids the redundant
    // compute in the first place; this is the correctness backstop).
    state = options.sim_cache->insert(fingerprint, std::move(state));
  }
  return evaluate_scenario(spec, *state, options);
}

}  // namespace dnnlife::core
