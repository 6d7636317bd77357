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

namespace {

/// The built-in models, in the order names() lists them.
AgingModelRegistry::Entries builtin_models() {
  AgingModelRegistry::Entries models;
  // The default engine is deliberately knob-free: it *is* the paper's
  // calibration, and every tunable lives in the SNM anchors it is built
  // from.
  models.emplace_back(
      kDefaultAgingModel,
      [](const SnmParams& snm, const AgingModelParams& params) {
        ModelParamReader reader(params, kDefaultAgingModel);
        reader.finish();
        return std::make_unique<CalibratedNbtiDeviceModel>(snm);
      });
  models.emplace_back(
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
  models.emplace_back(
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
  models.emplace_back(
      "dual-bti", [](const SnmParams& snm, const AgingModelParams& params) {
        ModelParamReader reader(params, "dual-bti");
        DualBtiDeviceModel::Params model_params;
        model_params.nbti = snm;
        model_params.pbti_ratio =
            reader.get("pbti_ratio", model_params.pbti_ratio);
        reader.finish();
        return std::make_unique<DualBtiDeviceModel>(model_params);
      });
  return models;
}

}  // namespace

std::unique_ptr<DeviceAgingModel> make_aging_model(
    const std::string& name, const SnmParams& snm,
    const AgingModelParams& params) {
  auto model = AgingModelRegistry::instance().at(name)(snm, params);
  DNNLIFE_ENSURES(model != nullptr,
                  "aging-model factory '" + name + "' returned null");
  return model;
}

}  // namespace dnnlife::aging

namespace dnnlife::util {

template <>
aging::AgingModelRegistry& aging::AgingModelRegistry::instance() {
  static aging::AgingModelRegistry registry("aging model",
                                            aging::builtin_models());
  return registry;
}

}  // namespace dnnlife::util
