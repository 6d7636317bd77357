#include "core/experiment.hpp"

#include <optional>
#include <stdexcept>

#include "core/fast_simulator.hpp"
#include "core/reference_simulator.hpp"
#include "dnn/model_zoo.hpp"
#include "util/executor.hpp"

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

aging::AgingReport run_policies_on_stream(
    const sim::WriteStream& stream, const RegionPolicyTable& policies,
    const aging::DeviceAgingModel& model,
    const aging::EnvironmentSpec& environment,
    const aging::AgingReportOptions& report, const StreamRunOptions& options) {
  const aging::DutyCycleTracker tracker = [&] {
    if (options.use_reference_simulator) {
      ReferenceSimOptions reference;
      reference.inferences = options.inferences;
      reference.verify_decode = false;
      return simulate_reference(stream, policies, reference);
    }
    FastSimOptions fast;
    fast.inferences = options.inferences;
    fast.threads = options.simulator_threads;
    return simulate_fast(stream, policies, fast);
  }();
  const aging::EnvironmentSegmentView segment{&tracker, environment};
  return make_aging_report({&segment, 1}, model, report);
}

aging::AgingReport run_policy_on_stream(
    const sim::WriteStream& stream, const PolicyConfig& policy,
    const aging::DeviceAgingModel& model,
    const aging::EnvironmentSpec& environment,
    const aging::AgingReportOptions& report, const StreamRunOptions& options) {
  return run_policies_on_stream(
      stream, RegionPolicyTable::uniform(stream.geometry(), policy), model,
      environment, report, options);
}

Workbench::Workbench(const ExperimentConfig& config) : config_(config) {
  network_ = std::make_unique<dnn::Network>(dnn::make_network(config.network));
  streamer_ = std::make_unique<dnn::WeightStreamer>(*network_, config.weights);
  codec_ = std::make_unique<quant::WeightWordCodec>(*streamer_, config.format);
  switch (config.hardware) {
    case HardwareKind::kBaseline:
      stream_ = std::make_unique<sim::BaselineWeightStream>(*codec_,
                                                            config.baseline);
      break;
    case HardwareKind::kTpuNpu:
      stream_ = std::make_unique<sim::NpuWeightStream>(*codec_, config.npu);
      break;
  }
  model_ = aging::make_aging_model(config.aging_model, config.snm,
                                   config.aging_model_params);
  aging::validate_environment(config.environment);
}

aging::AgingReport Workbench::evaluate(PolicyConfig policy) const {
  // The barrel shifter rotates at weight-word granularity.
  policy.weight_bits = codec_->bits();
  return evaluate_regions(
      RegionPolicyTable::uniform(stream_->geometry(), policy));
}

aging::AgingReport Workbench::evaluate_regions(
    const RegionPolicyTable& policies) const {
  StreamRunOptions options;
  options.inferences = config_.inferences;
  options.use_reference_simulator = config_.use_reference_simulator;
  options.simulator_threads = config_.simulator_threads;
  return run_policies_on_stream(*stream_, policies, *model_,
                                config_.environment, config_.report, options);
}

RegionPolicyTable Workbench::region_table(
    const std::vector<std::pair<std::string, double>>& fractions,
    std::vector<PolicyConfig> policies) const {
  for (PolicyConfig& policy : policies) policy.weight_bits = codec_->bits();
  return RegionPolicyTable(
      sim::MemoryRegionMap::from_fractions(stream_->geometry(), fractions),
      std::move(policies));
}

std::vector<aging::AgingReport> Workbench::evaluate_all(
    std::span<const PolicyConfig> policies, unsigned threads) const {
  std::vector<aging::AgingReport> reports;
  if (policies.empty()) return reports;
  const auto n = static_cast<unsigned>(policies.size());
  threads = util::resolve_thread_count(threads);
  if (threads > n) threads = n;
  // AgingReport is not default-constructible (a report always has a
  // histogram geometry), so tasks fill optional slots that are unwrapped
  // after the join.
  std::vector<std::optional<aging::AgingReport>> slots(policies.size());
  if (threads <= 1) {
    for (std::size_t i = 0; i < policies.size(); ++i)
      slots[i].emplace(evaluate(policies[i]));
  } else {
    // One bulk submission over the policy indices with `threads` as the
    // concurrency budget on the session executor. Slots are disjoint, so
    // no synchronisation beyond wait() is needed.
    util::TaskGroup group;
    group.submit_items(policies.size(), threads, [this, &policies, &slots](
                                                     std::size_t i) {
      slots[i].emplace(evaluate(policies[i]));
    });
    group.wait();
  }
  reports.reserve(policies.size());
  for (auto& slot : slots) reports.push_back(std::move(*slot));
  return reports;
}

aging::AgingReport run_aging_experiment(const ExperimentConfig& config) {
  return Workbench(config).evaluate(config.policy);
}

}  // namespace dnnlife::core
