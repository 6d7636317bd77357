#include "aging/model_registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace dnnlife::aging {

double ModelParamReader::get(const std::string& key, double fallback) {
  known_.push_back(key);
  const auto it = params_.find(key);
  return it == params_.end() ? fallback : it->second;
}

void ModelParamReader::finish() const {
  for (const auto& [key, _] : params_) {
    if (std::find(known_.begin(), known_.end(), key) != known_.end()) continue;
    std::string known;
    for (const std::string& name : known_)
      known += (known.empty() ? "" : ", ") + name;
    throw std::invalid_argument(
        "unknown aging_model_params key '" + key + "' for model '" + model_ +
        "' (known: " + (known.empty() ? "none — this model has no knobs" : known) +
        ")");
  }
}

AgingModelRegistry::AgingModelRegistry() {
  // The default engine is deliberately knob-free: it *is* the paper's
  // calibration, and every tunable lives in the SNM anchors it is built
  // from.
  factories_.emplace_back(
      kDefaultAgingModel,
      [](const SnmParams& snm, const AgingModelParams& params) {
        ModelParamReader reader(params, kDefaultAgingModel);
        reader.finish();
        return std::make_unique<CalibratedNbtiDeviceModel>(snm);
      });
  factories_.emplace_back(
      "arrhenius-nbti",
      [](const SnmParams& snm, const AgingModelParams& params) {
        ModelParamReader reader(params, "arrhenius-nbti");
        ThermalParams thermal;
        thermal.activation_energy_ev =
            reader.get("activation_energy_ev", thermal.activation_energy_ev);
        thermal.vdd_exponent = reader.get("vdd_exponent", thermal.vdd_exponent);
        reader.finish();
        return std::make_unique<ArrheniusNbtiDeviceModel>(snm, thermal);
      });
  factories_.emplace_back(
      "pbti-hci", [](const SnmParams& snm, const AgingModelParams& params) {
        ModelParamReader reader(params, "pbti-hci");
        PbtiHciDeviceModel::Params model_params;
        model_params.pbti = snm;
        model_params.recovery_floor =
            reader.get("recovery_floor", model_params.recovery_floor);
        model_params.hci_amplitude =
            reader.get("hci_amplitude", model_params.hci_amplitude);
        model_params.hci_time_exponent =
            reader.get("hci_time_exponent", model_params.hci_time_exponent);
        model_params.activation_energy_ev = reader.get(
            "activation_energy_ev", model_params.activation_energy_ev);
        model_params.vdd_exponent =
            reader.get("vdd_exponent", model_params.vdd_exponent);
        reader.finish();
        return std::make_unique<PbtiHciDeviceModel>(model_params);
      });
  factories_.emplace_back(
      "dual-bti", [](const SnmParams& snm, const AgingModelParams& params) {
        ModelParamReader reader(params, "dual-bti");
        DualBtiDeviceModel::Params model_params;
        model_params.nbti = snm;
        model_params.pbti_ratio =
            reader.get("pbti_ratio", model_params.pbti_ratio);
        reader.finish();
        return std::make_unique<DualBtiDeviceModel>(model_params);
      });
}

AgingModelRegistry& AgingModelRegistry::instance() {
  static AgingModelRegistry registry;
  return registry;
}

void AgingModelRegistry::add(const std::string& name,
                             DeviceModelFactory factory) {
  DNNLIFE_EXPECTS(!name.empty(), "aging-model name must not be empty");
  DNNLIFE_EXPECTS(factory != nullptr, "aging-model factory must not be null");
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [existing, _] : factories_)
    DNNLIFE_EXPECTS(existing != name,
                    "aging model '" + name + "' is already registered");
  factories_.emplace_back(name, std::move(factory));
}

bool AgingModelRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::any_of(factories_.begin(), factories_.end(),
                     [&](const auto& entry) { return entry.first == name; });
}

std::vector<std::string> AgingModelRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, _] : factories_) names.push_back(name);
  return names;
}

DeviceModelFactory AgingModelRegistry::factory_of(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [existing, factory] : factories_)
    if (existing == name) return factory;
  std::string known;
  for (const auto& [registered, _] : factories_)
    known += (known.empty() ? "" : ", ") + registered;
  throw std::invalid_argument("no aging model registered under '" + name +
                              "' (registered: " + known + ")");
}

void AgingModelRegistry::check(const std::string& name) const {
  factory_of(name);
}

std::unique_ptr<DeviceAgingModel> AgingModelRegistry::create(
    const std::string& name, const SnmParams& snm,
    const AgingModelParams& params) const {
  const DeviceModelFactory factory = factory_of(name);
  auto model = factory(snm, params);
  DNNLIFE_ENSURES(model != nullptr,
                  "aging-model factory '" + name + "' returned null");
  return model;
}

std::unique_ptr<DeviceAgingModel> make_aging_model(
    const std::string& name, const SnmParams& snm,
    const AgingModelParams& params) {
  return AgingModelRegistry::instance().create(name, snm, params);
}

}  // namespace dnnlife::aging
