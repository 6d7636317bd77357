// Parameterised scenario generation: one sweep spec → a grid of documents.
//
// Sweeps so far enumerated hand-written JSON files; a thousand-point sweep
// needs a generator. A sweep spec names a base scenario document plus a
// list of grid axes (environment numerics, policy kinds, aging models,
// aging_model_params knobs) and an optional jitter block (seeded uniform
// perturbations of the environment, `samples` replicates per grid point).
// The generator enumerates the full cross product in a stable row-major
// order (later axes vary fastest, jitter samples innermost) and emits one
// concrete scenario per point: a deterministic collision-free name, the
// materialised JSON document (util/json_writer — byte-identical across
// runs and machines) and the parsed ScenarioSpec.
//
// Determinism is the contract: the same spec produces the same documents
// everywhere, so N machines can each run `--spec=... --shard=K/N` with no
// coordinator and their shard summaries merge byte-identically
// (core/sweep_merge.hpp). Jitter uses util::CounterRng on the spec's
// explicit seed — platform-independent, and reproducible per point.
//
// Spec schema (strict, like every document layer here):
//   {
//     "name": "corners",                  // prefix of every point name
//     "base": { <scenario document> },    // "name" optional (overwritten)
//     "axes": [                           // optional
//       {"parameter": "temperature_c", "values": [25, 55, 85]},
//       {"parameter": "vdd",           "values": [0.95, 1.0]},
//       {"parameter": "activity_scale","values": [0.5, 1.0]},
//       {"parameter": "policy",        "values": ["no-mitigation", "dnn-life"]},
//       {"parameter": "aging_model",   "values": ["pbti-hci"]},
//       {"parameter": "aging_model_params.recovery_floor", "values": [0.0, 0.2]}
//     ],
//     "jitter": {                         // optional
//       "seed": 42,                       // required: explicit, never wall-clock
//       "samples": 3,                     // replicates per grid point (default 1)
//       "temperature_c": 5.0,             // uniform half-width around the point
//       "vdd": 0.02,
//       "activity_scale": 0.0
//     }
//   }
//
// Environment axes and jitter apply to every phase of the document; the
// policy axis rewrites each region's policy kind (creating one
// whole-memory region when the base has none); aging_model_params axes
// route through the scenario's "aging_model_params" object and therefore
// through the model registry's knob validation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "util/json.hpp"

namespace dnnlife::core {

/// One concrete sweep point.
struct GeneratedScenario {
  std::string name;      ///< unique: "<sweep>-<zero-padded index>[-tags][-jK]"
  std::string document;  ///< materialised scenario JSON (ends the file as-is)
  ScenarioSpec spec;     ///< parse_scenario(document)
  /// Grid assignment per axis, in axis order: (parameter, rendered value).
  /// Jitter perturbations are not listed here — they live in the document.
  std::vector<std::pair<std::string, std::string>> assignments;
  std::size_t grid_index = 0;     ///< row-major position in the grid
  std::size_t jitter_sample = 0;  ///< replicate number within the grid point
};

class ScenarioGenerator {
 public:
  /// Parse a sweep spec. Strict: unknown members, unknown axis parameters,
  /// empty value lists, duplicate axes, unregistered policies/models and a
  /// jitter block without a seed all throw std::invalid_argument.
  static ScenarioGenerator parse(const std::string& json_text);

  const std::string& name() const noexcept { return name_; }
  std::size_t grid_size() const noexcept;      ///< product of axis sizes
  std::size_t jitter_samples() const noexcept { return samples_; }
  std::size_t point_count() const noexcept { return grid_size() * samples_; }

  /// Enumerate every point. Each document is validated through
  /// parse_scenario; a base/axis combination that yields an invalid
  /// scenario throws std::invalid_argument naming the point.
  std::vector<GeneratedScenario> generate() const;

  /// Write "<name>.json" per point into `directory` (created if needed).
  /// File contents are exactly GeneratedScenario::document, and the
  /// zero-padded index prefix makes the directory's sorted glob order equal
  /// the generation order — ScenarioSuite::from_directory(directory) yields
  /// the same suite (and manifest hash) as generating in memory. Returns
  /// the file paths in generation order.
  std::vector<std::string> materialize(const std::string& directory) const;

 private:
  struct Axis {
    std::string parameter;
    std::vector<util::JsonValue> values;
  };

  std::string name_;
  util::JsonValue base_;
  std::vector<Axis> axes_;
  std::uint64_t jitter_seed_ = 0;
  std::size_t samples_ = 1;
  double jitter_temperature_ = 0.0;
  double jitter_vdd_ = 0.0;
  double jitter_activity_ = 0.0;
  bool jitter_present_ = false;
};

}  // namespace dnnlife::core
