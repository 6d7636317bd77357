// Per-layer bit-distribution report (the Sec. III analysis as a tool):
// for each weighted layer of a network, the per-format average
// '1'-probability, its worst bit-location, and the quantization
// parameters — the data an engineer needs to judge whether a fixed
// (inversion / rotation) scheme could ever balance this workload.
//
// Usage: bit_distribution_report [network] (default alexnet)
#include <iostream>
#include <stdexcept>
#include <string>

#include "dnn/model_zoo.hpp"
#include "quant/bit_distribution.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run_report(int argc, char** argv) {
  using namespace dnnlife;
  util::FlagTable flags("example_bit_distribution_report", "[network]", 1);
  if (!flags.parse(argc, argv)) return 1;
  const std::string name =
      flags.positionals().empty() ? "alexnet" : flags.positionals().front();
  const dnn::Network network = dnn::make_network(name);
  const dnn::WeightStreamer streamer(network);

  std::cout << "Per-layer weight-bit analysis: " << name << "\n\n";
  constexpr std::uint64_t kMaxSamplesPerLayer = 200000;

  for (auto format : {quant::WeightFormat::kFloat32,
                      quant::WeightFormat::kInt8Symmetric,
                      quant::WeightFormat::kInt8Asymmetric}) {
    const quant::WeightWordCodec codec(streamer, format);
    std::cout << "== " << quant::to_string(format) << " ==\n";
    util::Table table({"layer", "weights", "avg P(1)", "max |P(1)-0.5|",
                       "scale / zero-point"});
    for (std::size_t w = 0; w < network.weighted_layers().size(); ++w) {
      const auto& layer = network.layers()[network.weighted_layers()[w]];
      const auto dist =
          quant::analyze_layer_bits(codec, w, kMaxSamplesPerLayer);
      std::string quant_info = "-";
      if (format != quant::WeightFormat::kFloat32) {
        const auto& params = codec.layer_params(w);
        quant_info = util::Table::num(params.scale, 5) + " / " +
                     std::to_string(params.zero_point);
      }
      table.add_row({layer.name, util::Table::num(layer.weight_count()),
                     util::Table::num(dist.average_p_one, 3),
                     util::Table::num(dist.max_deviation_from_half(), 3),
                     quant_info});
    }
    std::cout << table.to_string() << "\n";
  }
  std::cout << "A fixed scheme needs avg P(1) = 0.5 at *every* layer and\n"
               "bit-location; the spread above shows why the paper opts for\n"
               "run-time randomisation instead.\n";
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_report(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
