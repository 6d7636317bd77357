// Top-level DNN-Life framework API: one call from (network, format,
// hardware, policy) to an SNM-degradation aging report.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aging/model_registry.hpp"
#include "aging/snm_histogram.hpp"
#include "core/region_policy.hpp"
#include "dnn/weight_gen.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/tpu_npu.hpp"

namespace dnnlife::core {

enum class HardwareKind { kBaseline, kTpuNpu };

std::string to_string(HardwareKind kind);

/// Inverse of to_string(HardwareKind) — round-trips every kind. Throws
/// std::invalid_argument (listing the valid names) for anything else.
HardwareKind hardware_kind_from_string(std::string_view name);

struct ExperimentConfig {
  std::string network = "alexnet";
  quant::WeightFormat format = quant::WeightFormat::kInt8Symmetric;
  HardwareKind hardware = HardwareKind::kBaseline;
  sim::BaselineAcceleratorConfig baseline;
  sim::TpuNpuConfig npu;
  PolicyConfig policy;
  unsigned inferences = 100;  ///< paper: duty-cycles observed over 100
  aging::SnmParams snm;
  /// Device-aging model, by AgingModelRegistry name (the default engine
  /// reproduces the pre-registry numbers bit-identically).
  std::string aging_model = aging::kDefaultAgingModel;
  /// Optional per-model knobs routed through the registry factory
  /// (strict: unknown keys throw at Workbench construction).
  aging::AgingModelParams aging_model_params;
  /// Operating conditions of the whole run (single-phase experiments sit
  /// at one operating point; scenarios express per-phase timelines).
  aging::EnvironmentSpec environment;
  dnn::WeightGenConfig weights;
  aging::AgingReportOptions report;
  /// Use the literal simulator (small configs / validation).
  bool use_reference_simulator = false;
  /// Worker threads for the fast simulator's row-parallel commit phase
  /// (see FastSimOptions::threads; results are bit-identical either way).
  unsigned simulator_threads = 1;
};

/// Run one full experiment (builds the network, streamer, codec and write
/// stream internally).
aging::AgingReport run_aging_experiment(const ExperimentConfig& config);

/// How to run a pre-built write stream (benches share the stream across
/// policies). Replaces the former positional (inferences, use_reference,
/// threads) tail of run_policy_on_stream.
struct StreamRunOptions {
  unsigned inferences = 100;
  /// Use the literal simulator (small configs / validation).
  bool use_reference_simulator = false;
  /// Fast-simulator commit threads (results bit-identical either way).
  unsigned simulator_threads = 1;
};

/// Run one policy uniformly against a pre-built write stream and evaluate
/// the duty-cycles under `model` in the fixed environment `environment`.
/// `policy.weight_bits` must already match the stream's weight format.
aging::AgingReport run_policy_on_stream(
    const sim::WriteStream& stream, const PolicyConfig& policy,
    const aging::DeviceAgingModel& model,
    const aging::EnvironmentSpec& environment,
    const aging::AgingReportOptions& report,
    const StreamRunOptions& options = {});

/// Run a region → policy table against a pre-built write stream; the
/// report breaks aging out per region.
aging::AgingReport run_policies_on_stream(
    const sim::WriteStream& stream, const RegionPolicyTable& policies,
    const aging::DeviceAgingModel& model,
    const aging::EnvironmentSpec& environment,
    const aging::AgingReportOptions& report,
    const StreamRunOptions& options = {});

/// A reusable experiment workbench: owns the network / streamer / codec /
/// stream for one (network, format, hardware) combination so several
/// policies can be evaluated without re-deriving quantization parameters.
class Workbench {
 public:
  explicit Workbench(const ExperimentConfig& config);

  const sim::WriteStream& stream() const noexcept { return *stream_; }
  const quant::WeightWordCodec& codec() const noexcept { return *codec_; }
  const dnn::WeightStreamer& streamer() const noexcept { return *streamer_; }
  const dnn::Network& network() const noexcept { return *network_; }
  const ExperimentConfig& config() const noexcept { return config_; }
  /// The registry-created device-aging model the reports evaluate under.
  const aging::DeviceAgingModel& model() const noexcept { return *model_; }
  std::shared_ptr<const aging::DeviceAgingModel> shared_model() const noexcept {
    return model_;
  }

  /// Evaluate one policy uniformly on the shared stream.
  aging::AgingReport evaluate(PolicyConfig policy) const;

  /// Evaluate a region → policy table on the shared stream (the table's
  /// geometry must match the stream; see region_table for building one
  /// with the right weight word width).
  aging::AgingReport evaluate_regions(const RegionPolicyTable& policies) const;

  /// Build a region table over this workbench's memory from (name,
  /// row-fraction) pairs plus one policy per region; each policy's
  /// weight_bits is set to the codec's weight word width (the barrel
  /// shifter's rotation granularity), mirroring what evaluate() does for
  /// uniform policies.
  RegionPolicyTable region_table(
      const std::vector<std::pair<std::string, double>>& fractions,
      std::vector<PolicyConfig> policies) const;

  /// Evaluate several policies on the shared stream, `threads` at a time
  /// (0 = hardware concurrency, clamped to the policy count; 1 runs
  /// inline). The shared stream's encoded-row cache is built exactly once
  /// under a call_once, and each policy evaluation is an independent pure
  /// function of its config, so reports[i] is bit-identical to
  /// evaluate(policies[i]) for any thread count.
  std::vector<aging::AgingReport> evaluate_all(
      std::span<const PolicyConfig> policies, unsigned threads = 0) const;

 private:
  ExperimentConfig config_;
  std::unique_ptr<dnn::Network> network_;
  std::unique_ptr<dnn::WeightStreamer> streamer_;
  std::unique_ptr<quant::WeightWordCodec> codec_;
  std::unique_ptr<sim::WriteStream> stream_;
  std::shared_ptr<const aging::DeviceAgingModel> model_;
};

}  // namespace dnnlife::core
