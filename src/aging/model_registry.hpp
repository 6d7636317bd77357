// Name-based device-aging-model registry: scenario JSON, sweep axes and
// the example CLIs select degradation physics by name, and external models
// plug in without touching the report or lifetime layers. The registry is
// util::Registry over DeviceModelFactory, the same template that holds the
// mitigation policies (core::PolicyRegistry).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aging/device_model.hpp"
#include "util/registry.hpp"

namespace dnnlife::aging {

/// The registry name of the default engine (the paper's calibrated
/// NBTI → SNM chain).
inline constexpr const char* kDefaultAgingModel = "calibrated-nbti";

/// Per-model tuning knobs, as parsed from a scenario's optional
/// "aging_model_params" JSON object (name → number). Factories consume the
/// knobs they understand through a ModelParamReader and reject the rest,
/// so a typo fails loudly instead of silently running the default physics.
using AgingModelParams = std::map<std::string, double>;

/// Strict reader of an AgingModelParams block. A factory calls get() for
/// every knob it supports (recording the key as known) and finish() last;
/// finish() throws std::invalid_argument naming the offending key and the
/// model's known knobs when any key was never requested.
class ModelParamReader {
 public:
  ModelParamReader(const AgingModelParams& params, std::string model_name)
      : params_(params), model_(std::move(model_name)) {}

  /// The knob's value, or `fallback` when absent.
  double get(const std::string& key, double fallback);

  /// Reject any key no get() call asked for.
  void finish() const;

 private:
  const AgingModelParams& params_;
  std::string model_;
  std::vector<std::string> known_;
};

/// Model factory: builds one immutable device model from the scenario's
/// SNM calibration anchors plus the scenario's model-parameter block.
/// Factories must consume `params` strictly (see ModelParamReader).
using DeviceModelFactory = std::function<std::unique_ptr<DeviceAgingModel>(
    const SnmParams&, const AgingModelParams&)>;

/// Thread-safe name → factory registry. The built-in models are
/// pre-registered: "calibrated-nbti" (default), "arrhenius-nbti",
/// "pbti-hci" and "dual-bti".
using AgingModelRegistry = util::Registry<DeviceModelFactory>;

/// Create a registered model; an unknown name throws std::invalid_argument
/// listing the registered names, an unknown parameter key throws naming
/// the model's known knobs.
std::unique_ptr<DeviceAgingModel> make_aging_model(
    const std::string& name, const SnmParams& snm = {},
    const AgingModelParams& params = {});

}  // namespace dnnlife::aging

namespace dnnlife::util {
/// Defined in model_registry.cpp with the four built-in models.
template <>
aging::AgingModelRegistry& aging::AgingModelRegistry::instance();
}  // namespace dnnlife::util
