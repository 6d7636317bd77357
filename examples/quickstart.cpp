// Quickstart: the full DNN-Life flow on the paper's custom MNIST network.
//
//  1. Build the network and its (synthetic pre-trained) weights.
//  2. Quantize to int8 and run a real inference to have a reference output.
//  3. Route every weight through the WDE -> SRAM -> RDD path and verify
//     the decoded weights produce the *same* inference result — the
//     encoding is transparent to the application.
//  4. Run the aging simulation with and without DNN-Life and report the
//     7-year SNM degradation.
#include <iostream>
#include <stdexcept>
#include <vector>

#include "core/metadata_store.hpp"
#include "core/policy_engine.hpp"
#include "core/scenario_suite.hpp"
#include "core/transducer.hpp"
#include "core/trbg.hpp"
#include "dnn/inference.hpp"
#include "dnn/model_zoo.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace dnnlife;

/// WeightSource that passes every weight word through WDE -> memory word
/// -> RDD with a per-weight random enable, exactly like the hardware path.
class TransducedWeightSource final : public dnn::WeightSource {
 public:
  TransducedWeightSource(const quant::WeightWordCodec& codec,
                         core::Trbg& trbg)
      : codec_(&codec), trbg_(&trbg), wde_(codec.bits()) {}

  float weight(std::uint64_t g) const override {
    const std::uint64_t original = codec_->encode(g);
    const bool enable = trbg_->next();
    // WDE on the write path...
    std::vector<std::uint64_t> stored = {original};
    wde_.apply(stored, enable);
    // ...RDD on the read path with the stored metadata bit.
    wde_.apply(stored, enable);
    return static_cast<float>(codec_->decode(g, stored[0]));
  }

 private:
  const quant::WeightWordCodec* codec_;
  core::Trbg* trbg_;
  core::XorTransducer wde_;
};

}  // namespace

int run_quickstart(int argc, char** argv) {
  // Optional CLI: quickstart [policy] [hardware], e.g.
  //   example_quickstart dnn-life tpu-like-npu
  // The policy is a PolicyRegistry name; the other DNN-Life settings stay.
  util::FlagTable flags("example_quickstart", "[policy] [hardware]", 2);
  if (!flags.parse(argc, argv)) return 1;
  const std::vector<std::string>& args = flags.positionals();
  core::PolicyConfig cli_policy = core::PolicyConfig::dnn_life(0.5);
  core::HardwareKind cli_hardware = core::HardwareKind::kTpuNpu;
  if (!args.empty()) {
    core::PolicyRegistry::instance().at(args[0]);  // unknown names throw
    cli_policy.kind = args[0];
  }
  if (args.size() > 1) cli_hardware = core::hardware_kind_from_string(args[1]);

  std::cout << "DNN-Life quickstart\n===================\n\n";

  // 1. Network + weights.
  const dnn::Network network = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(network);
  std::cout << "network: " << network.name() << ", "
            << network.total_weights() << " weights ("
            << network.weight_bytes(8) / 1024 << " KB at int8)\n";

  // 2. Reference inference on quantized weights.
  const quant::WeightWordCodec codec(streamer, quant::WeightFormat::kInt8Symmetric);
  dnn::Tensor3 input(1, 28, 28);
  for (std::uint32_t y = 8; y < 20; ++y)
    for (std::uint32_t x = 8; x < 20; ++x) input.at(0, y, x) = 1.0f;  // a blob

  class QuantizedSource final : public dnn::WeightSource {
   public:
    explicit QuantizedSource(const quant::WeightWordCodec& codec) : codec_(&codec) {}
    float weight(std::uint64_t g) const override {
      return static_cast<float>(codec_->decode(g, codec_->encode(g)));
    }
   private:
    const quant::WeightWordCodec* codec_;
  };
  const QuantizedSource quantized(codec);
  const auto reference = dnn::run_inference(network, quantized, input);
  std::cout << "reference inference (quantized weights): class "
            << dnn::argmax(reference) << "\n";

  // 3. Same inference with every weight routed through WDE -> RDD.
  core::BiasedTrbg trbg(0.5, 2026);
  const TransducedWeightSource transduced(codec, trbg);
  const auto roundtrip = dnn::run_inference(network, transduced, input);
  std::cout << "inference through WDE/SRAM/RDD path:    class "
            << dnn::argmax(roundtrip)
            << (roundtrip == reference ? "  (outputs identical)" : "  (MISMATCH!)")
            << "\n\n";

  // 4. Aging with and without the selected mitigation: two scenario points
  //    that differ only in their whole-memory policy.
  core::ScenarioSpec unprotected_spec;
  unprotected_spec.format = quant::WeightFormat::kInt8Symmetric;
  unprotected_spec.hardware = cli_hardware;
  unprotected_spec.phases = {{"custom_mnist", 100, {}}};
  unprotected_spec.regions = {{"memory", 1.0, core::PolicyConfig::none()}};
  core::ScenarioSpec protected_spec = unprotected_spec;
  protected_spec.regions = {{"memory", 1.0, cli_policy}};
  std::cout << "aging on " << core::to_string(cli_hardware) << " with "
            << cli_policy.name() << ":\n";
  const std::vector<core::ScenarioResult> results =
      core::run_specs(std::vector{unprotected_spec, protected_spec});
  const aging::AgingReport& unprotected = results[0].report;
  const aging::AgingReport& protected_ = results[1].report;

  util::Table table({"", "without mitigation", "with " + cli_policy.name()});
  table.add_row({"mean SNM degradation (7y)",
                 util::Table::num(unprotected.snm_stats.mean(), 2) + "%",
                 util::Table::num(protected_.snm_stats.mean(), 2) + "%"});
  table.add_row({"worst cell",
                 util::Table::num(unprotected.snm_stats.max(), 2) + "%",
                 util::Table::num(protected_.snm_stats.max(), 2) + "%"});
  table.add_row({"cells at optimal level",
                 util::Table::num(100.0 * unprotected.fraction_optimal, 1) + "%",
                 util::Table::num(100.0 * protected_.fraction_optimal, 1) + "%"});
  std::cout << table.to_string();
  std::cout << "\nDNN-Life balances every cell's duty-cycle at no cost to\n"
               "inference results and ~0.05% metadata overhead.\n";
  return roundtrip == reference ? 0 : 1;
}

int main(int argc, char** argv) {
  try {
    return run_quickstart(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
