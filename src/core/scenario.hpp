// Declarative scenario layer: one description drives a whole experiment.
//
// A ScenarioSpec names everything the lower layers need — the network
// phases of the device lifetime, the representation format, the hardware
// model, the region → policy assignments and the run parameters — so a
// production sweep is a list of specs (or JSON files) instead of bespoke
// driver code wiring networks, codecs, streams and simulators by hand.
//
// Layering: scenario → workload → policy engine → simulators. Every
// aging report of the benches and examples comes from run_scenario, alone
// or as a ScenarioSuite point.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "aging/environment.hpp"
#include "aging/lifetime.hpp"
#include "aging/model_registry.hpp"
#include "aging/snm_histogram.hpp"
#include "core/region_policy.hpp"
#include "dnn/weight_gen.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/encoded_rows.hpp"
#include "sim/tpu_npu.hpp"

namespace dnnlife::core {

enum class HardwareKind { kBaseline, kTpuNpu };

std::string to_string(HardwareKind kind);

/// Inverse of to_string(HardwareKind) — round-trips every kind. Throws
/// std::invalid_argument (listing the valid names) for anything else.
HardwareKind hardware_kind_from_string(std::string_view name);

/// One lifetime phase: a network run for a number of inferences on the
/// scenario's hardware, in an operating environment. Zero inferences
/// describe a provisioned-but-dormant model (the phase is skipped).
struct ScenarioPhaseSpec {
  std::string network = "custom_mnist";
  unsigned inferences = 100;
  /// Temperature / vdd / activity during the phase; default = nominal.
  /// Distinct environments keep their own duty-cycle accumulators and the
  /// aging layer integrates degradation across the resulting timeline.
  aging::EnvironmentSpec environment;
};

/// A phase "environment" member and the range a document may give it.
/// parse_environment and the sweep generator's environment axes and
/// jitter read this one table, so a generated document never fails its
/// own schema check.
struct EnvParameter {
  std::string_view name;
  double lo, hi;
  double aging::EnvironmentSpec::*field;
};

inline constexpr EnvParameter kEnvParameters[] = {
    {"temperature_c", -273.0, 1000.0, &aging::EnvironmentSpec::temperature_c},
    {"vdd", 0.05, 10.0, &aging::EnvironmentSpec::vdd},
    {"activity_scale", 0.0, 1.0, &aging::EnvironmentSpec::activity_scale},
};

/// One memory region and its policy. `row_fraction`s of all regions must
/// sum to 1; row counts are rounded with the last region absorbing the
/// remainder (see sim::MemoryRegionMap::from_fractions).
struct ScenarioRegionSpec {
  std::string name = "memory";
  double row_fraction = 1.0;
  PolicyConfig policy;
};

struct ScenarioSpec {
  std::string name = "scenario";
  quant::WeightFormat format = quant::WeightFormat::kInt8Symmetric;
  HardwareKind hardware = HardwareKind::kBaseline;
  sim::BaselineAcceleratorConfig baseline;
  sim::TpuNpuConfig npu;
  /// Lifetime phases, in order. At least one is required to run.
  std::vector<ScenarioPhaseSpec> phases;
  /// Region → policy assignments; empty means one whole-memory region
  /// with the default (no-mitigation) policy.
  std::vector<ScenarioRegionSpec> regions;
  unsigned threads = 1;
  bool use_reference_simulator = false;
  aging::AgingReportOptions report;
  aging::SnmParams snm;
  /// Device-aging model, by AgingModelRegistry name. The default engine
  /// is temperature-agnostic (pinned to the paper's calibration); pick
  /// "arrhenius-nbti" to make per-phase temperatures matter.
  std::string aging_model = aging::kDefaultAgingModel;
  /// Optional per-model knobs (the scenario's "aging_model_params" JSON
  /// object, e.g. activation_energy_ev / recovery_floor), routed through
  /// the model's registry factory. Unknown keys are rejected strictly.
  aging::AgingModelParams aging_model_params;
  /// Failure threshold of the lifetime solve.
  aging::LifetimeParams lifetime;
};

/// Parse a scenario from its JSON description. Strict: unknown members,
/// wrong types and out-of-range values throw std::invalid_argument with
/// an explanatory message. See README.md ("Declarative scenarios") for
/// the schema.
ScenarioSpec parse_scenario(const std::string& json_text);

struct ScenarioResult {
  sim::MemoryGeometry geometry;          ///< resolved weight-memory shape
  /// "network x inferences" per phase, with the environment appended when
  /// it deviates from nominal.
  std::vector<std::string> phase_labels;
  aging::AgingReport report;             ///< includes the per-region breakdown
  /// Years-to-failure over the phase-conditioned environment timeline
  /// (per-region breakdown included); absent when every phase is dormant.
  std::optional<aging::LifetimeReport> lifetime;
};

class SimCache;  // core/sim_cache.hpp

/// The canonical simulation fingerprint of a spec: a stable 32-hex-char
/// content hash over exactly the fields that influence the simulated
/// write stream and duty accumulation — every phase's (network,
/// inferences) in order, the environment-coalescing partition structure
/// (which consecutive active phases share a duty segment; the environment
/// *values* are evaluation-time inputs and deliberately excluded), the
/// quantisation format, the active hardware config, and the resolved
/// region → policy table (fractions, policy kinds/engines and their
/// stream-affecting knobs, seeds). Evaluation-only fields — name,
/// threads, environment values, report/snm options, aging model
/// selection/params, lifetime thresholds — never perturb the hash, so
/// sweep points differing only along those axes share one fingerprint
/// and can share one simulation (see core/sim_cache.hpp).
///
/// Adding a ScenarioSpec field requires classifying it here (or in the
/// documented exclusion list); the field-inventory test pins the struct
/// sizes so an unclassified addition fails the build's test suite.
std::string simulation_fingerprint(const ScenarioSpec& spec);

class SimStore;  // core/sim_store.hpp

/// Thrown by run_scenario when RunScenarioOptions::deadline has passed at
/// one of its stage boundaries.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("scenario deadline exceeded") {}
};

struct RunScenarioOptions {
  /// Shared duty-state cache. Non-null: look up the spec's fingerprint
  /// first and skip simulation on a hit, inserting on a miss; results are
  /// byte-identical to the cache-off path. Null: always simulate.
  std::shared_ptr<SimCache> sim_cache;
  /// Disk tier under the cache (see core/sim_store.hpp). Non-null: a
  /// memory miss probes the store before simulating, and fresh
  /// simulations are durably published to it before the cache insert —
  /// so re-runs, resumed crashes and sibling shards sharing the
  /// directory reuse committed duty state across processes. Results stay
  /// byte-identical to the store-off path.
  std::shared_ptr<SimStore> sim_store;
  /// Prebuilt row payloads: asked once per distinct phase network with its
  /// sim::EncodedRows key (see encoded_rows_keys). Null — or no callback —
  /// synthesises that network here under the spec's thread budget.
  std::function<std::shared_ptr<const sim::EncodedRows>(const std::string&)>
      lookup_encoded_rows;
  /// Called with every payload artifact this run builds, as soon as it is
  /// built and before the simulation that uses it. The SweepScheduler
  /// uses it to release siblings waiting for the same key.
  std::function<void(std::shared_ptr<const sim::EncodedRows>)>
      publish_encoded_rows;
  /// Thread budget of each stage that runs work (each payload build, the
  /// duty simulation, each report), asked with the spec's `threads` at its
  /// boundary. Null keeps `threads`; results are bit-identical for any
  /// answer. The SweepScheduler lends idle admission slots through it.
  std::function<unsigned(unsigned)> stage_threads;
  /// Soft deadline: once it has passed, the run throws DeadlineExceeded at
  /// its next stage boundary — entry, each payload build, the duty
  /// simulation, the aging report, the lifetime report. A running stage is
  /// never interrupted, so the overrun is at most one stage. The
  /// SweepScheduler sets it per attempt; the default never expires.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// The sim::EncodedRows keys a simulation of `spec` needs: one per
/// distinct phase network, in first-use order.
std::vector<std::string> encoded_rows_keys(const ScenarioSpec& spec);

/// Run the scenario end-to-end: build the per-network streams (hardware
/// config shared, so all phases target the same physical memory), resolve
/// the region table, simulate the phased workload and report aging per
/// region. With a sim cache or store in `options` the simulation is reused
/// by fingerprint; results are identical either way.
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunScenarioOptions& options = {});

}  // namespace dnnlife::core
