#include "workloads.hpp"

#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace dnnlife_bench {

namespace {

using dnnlife::core::GeneratedScenario;
using dnnlife::core::ScenarioGenerator;
using dnnlife::util::JsonValue;

JsonValue object(
    std::initializer_list<std::pair<const char*, JsonValue>> members) {
  JsonValue value = JsonValue::make_object();
  for (const auto& [key, member] : members) value.set(key, member);
  return value;
}

JsonValue array(std::initializer_list<JsonValue> items) {
  JsonValue value = JsonValue::make_array();
  for (const JsonValue& item : items) value.push_back(item);
  return value;
}

JsonValue number(double value) { return JsonValue::make_number(value); }
JsonValue text(std::string value) {
  return JsonValue::make_string(std::move(value));
}

/// A 53-bit seed (exact as a JSON number) for one consumer of the
/// workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  using dnnlife::util::splitmix64;
  return splitmix64(seed ^ splitmix64(stream)) & ((std::uint64_t{1} << 53) - 1);
}

enum SeedStream : std::uint64_t { kPolicySeed = 1, kEvalJitter, kTimelineJitter };

JsonValue policy(const std::string& kind, std::uint64_t seed) {
  if (kind != "dnn-life") return object({{"kind", text(kind)}});
  return object({{"kind", text(kind)},
                 {"trbg_bias", number(0.7)},
                 {"balancer_bits", number(4)},
                 {"seed", number(static_cast<double>(
                              derive_seed(seed, kPolicySeed)))}});
}

JsonValue region(const std::string& name, double rows, JsonValue policy) {
  return object({{"name", text(name)},
                 {"rows", number(rows)},
                 {"policy", std::move(policy)}});
}

/// `policy_kind` on the hot `hot_fraction` of the rows, the rest unmitigated.
JsonValue hot_cold_regions(const std::string& policy_kind, double hot_fraction,
                           std::uint64_t seed) {
  JsonValue regions =
      array({region("hot", hot_fraction, policy(policy_kind, seed))});
  if (hot_fraction < 1.0)
    regions.push_back(
        region("cold", 1.0 - hot_fraction, policy("no-mitigation", seed)));
  return regions;
}

JsonValue phase(const std::string& network, unsigned inferences,
                std::optional<double> temperature_c = std::nullopt) {
  JsonValue value = object({{"network", text(network)},
                            {"inferences", number(inferences)}});
  if (temperature_c)
    value.set("environment",
              object({{"temperature_c", number(*temperature_c)}}));
  return value;
}

JsonValue scenario(const std::string& format, const std::string& hardware,
                   JsonValue phases, JsonValue regions) {
  JsonValue value = object({{"format", text(format)},
                            {"hardware", text(hardware)}});
  if (hardware == "tpu-like-npu")
    value.set("npu", object({{"array_dim", number(128)},
                             {"fifo_tiles", number(2)}}));
  value.set("phases", std::move(phases));
  value.set("regions", std::move(regions));
  return value;
}

JsonValue axis(const std::string& parameter,
               std::initializer_list<JsonValue> values) {
  return object({{"parameter", text(parameter)}, {"values", array(values)}});
}

/// Run one sweep spec through the generator and append its points.
void generate(std::vector<GeneratedScenario>& out, const std::string& name,
              JsonValue base, std::optional<JsonValue> axes = std::nullopt,
              std::optional<JsonValue> jitter = std::nullopt) {
  JsonValue spec = object({{"name", text(name)}, {"base", std::move(base)}});
  if (axes) spec.set("axes", std::move(*axes));
  if (jitter) spec.set("jitter", std::move(*jitter));
  for (GeneratedScenario& point :
       ScenarioGenerator::parse(dnnlife::util::write_json(spec)).generate())
    out.push_back(std::move(point));
}

Workload policy_grid_cold(std::uint64_t seed, unsigned workers,
                          const std::string& network) {
  Workload workload;
  workload.jobs = workers;
  workload.threads = 1;
  workload.store = StoreMode::kFreshPerRound;
  workload.journal = true;
  for (const char* kind :
       {"no-mitigation", "inversion", "barrel-shifter", "dnn-life"})
    for (const double hot : {0.25, 0.5, 1.0})
      generate(workload.points,
               std::string("policy-grid-") + kind + "-hot" +
                   dnnlife::util::json_number_repr(hot),
               scenario("int8-symmetric", "tpu-like-npu",
                        array({phase(network, 20)}),
                        hot_cold_regions(kind, hot, seed)));
  return workload;
}

Workload point_cold(std::uint64_t seed, unsigned workers,
                    const std::string& network) {
  Workload workload;
  workload.jobs = 1;
  workload.threads = workers;
  for (const char* format : {"int8-symmetric", "int8-asymmetric", "float32"})
    for (const char* hardware : {"tpu-like-npu", "baseline-accelerator"})
      generate(workload.points,
               std::string("point-") + format + "-" + hardware,
               scenario(format, hardware, array({phase(network, 20)}),
                        hot_cold_regions("dnn-life", 1.0, seed)));
  return workload;
}

Workload eval_warm(std::uint64_t seed, unsigned workers,
                   const std::string& network) {
  Workload workload;
  workload.jobs = workers;
  workload.threads = 1;
  workload.store = StoreMode::kWarm;
  const JsonValue base =
      scenario("int8-symmetric", "tpu-like-npu", array({phase(network, 20)}),
               hot_cold_regions("dnn-life", 0.25, seed));
  generate(workload.warmup, "eval-warm-warmup", base);
  generate(workload.points, "eval-warm", base,
           array({axis("aging_model",
                       {text("calibrated-nbti"), text("arrhenius-nbti"),
                        text("pbti-hci"), text("dual-bti")}),
                  axis("temperature_c", {number(25), number(55), number(85)}),
                  axis("activity_scale", {number(0.5), number(1.0)})}),
           object({{"seed", number(static_cast<double>(
                                derive_seed(seed, kEvalJitter)))},
                   {"samples", number(12)},
                   {"temperature_c", number(3.0)},
                   {"vdd", number(0.02)}}));
  return workload;
}

Workload timeline_warm(std::uint64_t seed, unsigned workers,
                       const std::string& network) {
  Workload workload;
  workload.jobs = 1;
  workload.threads = workers;
  workload.store = StoreMode::kWarm;
  // Two phases at different temperatures: two environment segments, one
  // simulation fingerprint.
  const JsonValue base = scenario(
      "int8-symmetric", "tpu-like-npu",
      array({phase(network, 10, 45.0), phase(network, 10, 85.0)}),
      hot_cold_regions("dnn-life", 0.25, seed));
  const JsonValue jitter =
      object({{"seed", number(static_cast<double>(
                           derive_seed(seed, kTimelineJitter)))},
              {"temperature_c", number(2.0)}});
  generate(workload.warmup, "timeline-warm-warmup", base);
  generate(workload.points, "timeline-warm", base,
           array({axis("aging_model",
                       {text("calibrated-nbti"), text("arrhenius-nbti"),
                        text("dual-bti")}),
                  axis("vdd", {number(0.95), number(1.05)}),
                  axis("activity_scale", {number(0.5), number(1.0)})}),
           jitter);
  generate(workload.points, "timeline-warm-pbti", base,
           array({axis("aging_model", {text("pbti-hci")}),
                  axis("activity_scale", {number(0.5), number(1.0)})}),
           jitter);
  return workload;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "policy-grid-cold", "point-cold", "eval-warm", "timeline-warm"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       unsigned workers, const std::string& network) {
  Workload workload;
  if (name == "policy-grid-cold") {
    workload = policy_grid_cold(seed, workers, network);
  } else if (name == "point-cold") {
    workload = point_cold(seed, workers, network);
  } else if (name == "eval-warm") {
    workload = eval_warm(seed, workers, network);
  } else if (name == "timeline-warm") {
    workload = timeline_warm(seed, workers, network);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  workload.name = name;
  return workload;
}

}  // namespace dnnlife_bench
