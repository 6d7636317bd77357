#include "core/mitigation_policy.hpp"

#include "util/check.hpp"

namespace dnnlife::core {

std::string PolicyConfig::name() const {
  if (kind != "dnn-life") return kind;
  return kind + " (bias=" + std::to_string(trbg_bias).substr(0, 4) +
         (bias_balancing
              ? ", balancing M=" + std::to_string(balancer_bits) + ")"
              : ", no balancing)");
}

PolicyConfig PolicyConfig::none() { return PolicyConfig{}; }

PolicyConfig PolicyConfig::inversion() {
  PolicyConfig config;
  config.kind = "inversion";
  return config;
}

PolicyConfig PolicyConfig::barrel_shifter(unsigned weight_bits) {
  PolicyConfig config;
  config.kind = "barrel-shifter";
  config.weight_bits = weight_bits;
  return config;
}

PolicyConfig PolicyConfig::dnn_life(double trbg_bias, bool bias_balancing,
                                    unsigned balancer_bits, std::uint64_t seed) {
  PolicyConfig config;
  config.kind = "dnn-life";
  config.trbg_bias = trbg_bias;
  config.bias_balancing = bias_balancing;
  config.balancer_bits = balancer_bits;
  config.seed = seed;
  return config;
}

void validate_policy_config(const PolicyConfig& config,
                            std::uint32_t row_bits) {
  const std::string& label = config.kind;
  DNNLIFE_EXPECTS(config.weight_bits >= 1 && config.weight_bits <= 64,
                  label + ": weight_bits must be in 1..64, got " +
                      std::to_string(config.weight_bits));
  if (config.kind == "barrel-shifter" && row_bits != 0) {
    DNNLIFE_EXPECTS(row_bits % config.weight_bits == 0,
                    label + ": weight_bits " +
                        std::to_string(config.weight_bits) +
                        " must divide the memory row width " +
                        std::to_string(row_bits));
  }
  if (config.kind == "dnn-life") {
    DNNLIFE_EXPECTS(config.trbg_bias >= 0.0 && config.trbg_bias <= 1.0,
                    label + ": trbg_bias must be a probability in [0, 1], "
                            "got " + std::to_string(config.trbg_bias));
    if (config.bias_balancing) {
      DNNLIFE_EXPECTS(config.balancer_bits >= 1 && config.balancer_bits <= 31,
                      label + ": balancer_bits must be in 1..31, got " +
                          std::to_string(config.balancer_bits));
    }
  }
}

}  // namespace dnnlife::core
