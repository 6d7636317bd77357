#include "core/scenario_generator.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <stdexcept>

#include "aging/model_registry.hpp"
#include "core/policy_engine.hpp"
#include "util/check.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace dnnlife::core {

namespace {

using util::JsonValue;
using util::check_members;

constexpr std::string_view kParamsPrefix = "aging_model_params.";
constexpr std::size_t kMaxPoints = 1'000'000;

const EnvParameter* env_parameter(std::string_view name) {
  for (const EnvParameter& parameter : kEnvParameters)
    if (parameter.name == name) return &parameter;
  return nullptr;
}

/// Render an axis value for names/assignments: strings verbatim, numbers
/// in their canonical (shortest round-trip) form.
std::string render_value(const JsonValue& value) {
  return value.is_string() ? value.as_string()
                           : util::json_number_repr(value.as_number());
}

/// Keep point names filesystem- and CSV-friendly.
std::string sanitize_tag(std::string text) {
  for (char& c : text) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '=' || c == '+' || c == '-';
    if (!ok) c = '-';
  }
  return text;
}

/// The short tag of an axis parameter ("aging_model_params.recovery_floor"
/// → "recovery_floor").
std::string_view short_parameter(std::string_view parameter) {
  const std::size_t dot = parameter.rfind('.');
  return dot == std::string_view::npos ? parameter
                                       : parameter.substr(dot + 1);
}

/// Every phase object of the document, creating the member structure the
/// override needs. Throws when the base has no phases to apply it to.
std::vector<JsonValue>& phases_of(JsonValue& document,
                                  std::string_view parameter) {
  JsonValue* phases = document.find_mutable("phases");
  if (phases == nullptr || !phases->is_array() ||
      phases->items().empty())
    throw std::invalid_argument(
        "sweep base needs a non-empty 'phases' array to apply '" +
        std::string(parameter) + "'");
  return phases->mutable_items();
}

void set_phase_environment(JsonValue& phase, std::string_view key,
                           double value) {
  if (!phase.is_object())
    throw std::invalid_argument("sweep base phases must be objects");
  JsonValue* environment = phase.find_mutable("environment");
  if (environment == nullptr) {
    phase.set("environment", JsonValue::make_object());
    environment = phase.find_mutable("environment");
  }
  environment->set(std::string(key), JsonValue::make_number(value));
}

void apply_policy(JsonValue& document, const std::string& kind) {
  JsonValue* regions = document.find_mutable("regions");
  if (regions == nullptr || regions->items().empty()) {
    JsonValue policy = JsonValue::make_object();
    policy.set("kind", JsonValue::make_string(kind));
    JsonValue region = JsonValue::make_object();
    region.set("name", JsonValue::make_string("memory"));
    region.set("rows", JsonValue::make_number(1.0));
    region.set("policy", std::move(policy));
    JsonValue list = JsonValue::make_array();
    list.push_back(std::move(region));
    document.set("regions", std::move(list));
    return;
  }
  for (JsonValue& region : regions->mutable_items()) {
    if (!region.is_object())
      throw std::invalid_argument("sweep base regions must be objects");
    JsonValue* policy = region.find_mutable("policy");
    if (policy == nullptr) {
      region.set("policy", JsonValue::make_object());
      policy = region.find_mutable("policy");
    }
    policy->set("kind", JsonValue::make_string(kind));
  }
}

void apply_model_param(JsonValue& document, std::string_view key,
                       double value) {
  JsonValue* params = document.find_mutable("aging_model_params");
  if (params == nullptr) {
    document.set("aging_model_params", JsonValue::make_object());
    params = document.find_mutable("aging_model_params");
  }
  params->set(std::string(key), JsonValue::make_number(value));
}

double clamp(double value, double lo, double hi) {
  return value < lo ? lo : (value > hi ? hi : value);
}

}  // namespace

ScenarioGenerator ScenarioGenerator::parse(const std::string& json_text) {
  const JsonValue root = JsonValue::parse(json_text);
  check_members(root, "sweep spec", {"name", "base", "axes", "jitter"});
  ScenarioGenerator generator;
  generator.name_ = root.at("name").as_string();
  if (generator.name_.empty())
    throw std::invalid_argument("sweep 'name' must not be empty");
  generator.base_ = root.at("base");
  if (!generator.base_.is_object())
    throw std::invalid_argument("sweep 'base' must be a scenario object");

  if (const JsonValue* axes = root.find("axes")) {
    for (const JsonValue& axis_doc : axes->items()) {
      check_members(axis_doc, "axis", {"parameter", "values"});
      Axis axis;
      axis.parameter = axis_doc.at("parameter").as_string();
      for (const Axis& existing : generator.axes_)
        if (existing.parameter == axis.parameter)
          throw std::invalid_argument("duplicate sweep axis '" +
                                      axis.parameter + "'");
      const std::vector<JsonValue>& values = axis_doc.at("values").items();
      if (values.empty())
        throw std::invalid_argument("sweep axis '" + axis.parameter +
                                    "' needs at least one value");
      if (values.size() > kMaxPoints)
        throw std::invalid_argument("sweep axis '" + axis.parameter +
                                    "' is absurdly large");
      if (const EnvParameter* parameter = env_parameter(axis.parameter)) {
        for (const JsonValue& value : values)
          value.as_number_in(parameter->lo, parameter->hi, axis.parameter);
      } else if (axis.parameter == "policy") {
        for (const JsonValue& value : values)
          PolicyRegistry::instance().at(value.as_string());
      } else if (axis.parameter == "aging_model") {
        for (const JsonValue& value : values)
          aging::AgingModelRegistry::instance().at(value.as_string());
      } else if (axis.parameter.rfind(kParamsPrefix, 0) == 0 &&
                 axis.parameter.size() > kParamsPrefix.size()) {
        // Knob values are numbers; which knobs the chosen model accepts is
        // validated per generated point, where the aging_model is known.
        for (const JsonValue& value : values) value.as_number();
      } else {
        throw std::invalid_argument(
            "unknown sweep axis parameter '" + axis.parameter +
            "' (expected temperature_c, vdd, activity_scale, policy, "
            "aging_model, or aging_model_params.<knob>)");
      }
      axis.values = values;
      generator.axes_.push_back(std::move(axis));
    }
  }

  if (const JsonValue* jitter = root.find("jitter")) {
    check_members(*jitter, "jitter",
                  {"seed", "samples", "temperature_c", "vdd",
                   "activity_scale"});
    generator.jitter_present_ = true;
    // The seed is mandatory and explicit: an implicit wall-clock seed
    // would silently break the cross-machine determinism contract.
    generator.jitter_seed_ = jitter->at("seed").as_uint();
    if (const JsonValue* samples = jitter->find("samples")) {
      generator.samples_ = static_cast<std::size_t>(samples->as_uint());
      if (generator.samples_ < 1 || generator.samples_ > kMaxPoints)
        throw std::invalid_argument("jitter samples out of 1.." +
                                    std::to_string(kMaxPoints));
    }
    if (const JsonValue* v = jitter->find("temperature_c"))
      generator.jitter_temperature_ =
          v->as_number_in(0.0, 500.0, "jitter temperature_c");
    if (const JsonValue* v = jitter->find("vdd"))
      generator.jitter_vdd_ = v->as_number_in(0.0, 5.0, "jitter vdd");
    if (const JsonValue* v = jitter->find("activity_scale"))
      generator.jitter_activity_ =
          v->as_number_in(0.0, 1.0, "jitter activity_scale");
  }

  if (generator.point_count() > kMaxPoints)
    throw std::invalid_argument(
        "sweep enumerates " + std::to_string(generator.point_count()) +
        " points, more than the " + std::to_string(kMaxPoints) + " limit");
  return generator;
}

std::size_t ScenarioGenerator::grid_size() const noexcept {
  std::size_t size = 1;
  for (const Axis& axis : axes_) {
    // parse() bounds the product, so this cannot overflow for a spec that
    // made it through validation.
    size *= axis.values.size();
    if (size > kMaxPoints) return size;
  }
  return size;
}

std::vector<GeneratedScenario> ScenarioGenerator::generate() const {
  const std::size_t grid = grid_size();
  const std::size_t total = grid * samples_;
  DNNLIFE_EXPECTS(total <= kMaxPoints, "sweep too large");
  int width = 4;
  for (std::size_t bound = 10000; bound < total; bound *= 10) ++width;
  const util::CounterRng jitter_rng(jitter_seed_);

  std::vector<GeneratedScenario> points;
  points.reserve(total);
  for (std::size_t grid_index = 0; grid_index < grid; ++grid_index) {
    // Decode the row-major multi-index: the last axis varies fastest.
    std::vector<std::size_t> value_index(axes_.size(), 0);
    std::size_t rest = grid_index;
    for (std::size_t a = axes_.size(); a-- > 0;) {
      value_index[a] = rest % axes_[a].values.size();
      rest /= axes_[a].values.size();
    }
    for (std::size_t sample = 0; sample < samples_; ++sample) {
      GeneratedScenario point;
      point.grid_index = grid_index;
      point.jitter_sample = sample;
      const std::size_t linear = grid_index * samples_ + sample;

      JsonValue document = base_;
      std::string tags;
      for (std::size_t a = 0; a < axes_.size(); ++a) {
        const Axis& axis = axes_[a];
        const JsonValue& value = axis.values[value_index[a]];
        const std::string rendered = render_value(value);
        point.assignments.emplace_back(axis.parameter, rendered);
        tags += "-";
        tags += sanitize_tag(std::string(short_parameter(axis.parameter)) +
                             "=" + rendered);
        if (const EnvParameter* parameter = env_parameter(axis.parameter)) {
          for (JsonValue& phase : phases_of(document, axis.parameter))
            set_phase_environment(phase, parameter->name, value.as_number());
        } else if (axis.parameter == "policy") {
          apply_policy(document, value.as_string());
        } else if (axis.parameter == "aging_model") {
          document.set("aging_model",
                       JsonValue::make_string(value.as_string()));
        } else {
          apply_model_param(document,
                            short_parameter(axis.parameter),
                            value.as_number());
        }
      }

      if (jitter_present_) {
        const double amplitudes[] = {jitter_temperature_, jitter_vdd_,
                                     jitter_activity_};
        for (std::size_t slot = 0; slot < 3; ++slot) {
          if (amplitudes[slot] <= 0.0) continue;
          const EnvParameter& parameter = kEnvParameters[slot];
          // One offset per (point, parameter), applied to every phase, so
          // a jittered replicate is a coherent shift of the whole
          // timeline. CounterRng makes it a pure function of
          // (seed, point, parameter) — identical on every machine.
          const double u = jitter_rng.double_at(linear * 3 + slot);
          const double offset = (2.0 * u - 1.0) * amplitudes[slot];
          for (JsonValue& phase : phases_of(document, parameter.name)) {
            double current = aging::EnvironmentSpec{}.*parameter.field;
            if (const JsonValue* environment = phase.find("environment"))
              if (const JsonValue* v = environment->find(parameter.name))
                current = v->as_number();
            set_phase_environment(
                phase, parameter.name,
                clamp(current + offset, parameter.lo, parameter.hi));
          }
        }
      }

      char padded[32];
      std::snprintf(padded, sizeof padded, "%0*zu", width, linear);
      point.name = name_ + "-" + padded + tags;
      if (samples_ > 1) point.name += "-j" + std::to_string(sample);
      document.set("name", JsonValue::make_string(point.name));
      point.document = util::write_json(document);
      try {
        point.spec = parse_scenario(point.document);
      } catch (const std::exception& error) {
        throw std::invalid_argument("generated scenario '" + point.name +
                                    "': " + error.what());
      }
      points.push_back(std::move(point));
    }
  }
  return points;
}

std::vector<std::string> ScenarioGenerator::materialize(
    const std::string& directory) const {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  std::vector<std::string> paths;
  const std::vector<GeneratedScenario> points = generate();
  paths.reserve(points.size());
  for (const GeneratedScenario& point : points) {
    const fs::path path = fs::path(directory) / (point.name + ".json");
    std::ofstream out(path, std::ios::binary);
    if (!out)
      throw std::invalid_argument("cannot open '" + path.string() +
                                  "' for writing");
    out << point.document;
    if (!out)
      throw std::invalid_argument("failed writing '" + path.string() + "'");
    paths.push_back(path.string());
  }
  return paths;
}

}  // namespace dnnlife::core
