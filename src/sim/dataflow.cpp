#include "sim/dataflow.hpp"

namespace dnnlife::sim {

LayerRowShape::LayerRowShape(const dnn::LayerSpec& layer,
                             DataflowConfig config) noexcept
    : filters(layer.kind == dnn::LayerKind::kConv ? layer.out_channels
                                                  : layer.out_features),
      weights_per_filter(layer.weight_count() / filters),
      sets(util::ceil_div(filters, config.filters_per_set)),
      rows_per_set(util::ceil_div(weights_per_filter,
                                  config.weights_per_filter_per_row)) {}

TiledRowSource::TiledRowSource(const dnn::Network& network, DataflowConfig config)
    : network_(&network), config_(config) {
  DNNLIFE_EXPECTS(config_.filters_per_set >= 1, "f must be positive");
  DNNLIFE_EXPECTS(config_.weights_per_filter_per_row >= 1, "N must be positive");
  for (const std::size_t layer : network.weighted_layers())
    total_rows_ += LayerRowShape(network.layers()[layer], config_).rows();
}

}  // namespace dnnlife::sim
