#include "sim/tpu_npu.hpp"

namespace dnnlife::sim {

DataflowConfig npu_dataflow(const TpuNpuConfig& config) noexcept {
  return DataflowConfig{config.array_dim, 1};
}

NpuWeightStream::NpuWeightStream(const quant::WeightWordCodec& codec,
                                 TpuNpuConfig config)
    : NpuWeightStream(EncodedRows::build(codec, npu_dataflow(config)), config) {}

NpuWeightStream::NpuWeightStream(std::shared_ptr<const EncodedRows> rows,
                                 TpuNpuConfig config)
    : rows_(std::move(rows)), config_(config) {
  DNNLIFE_EXPECTS(rows_ != nullptr, "NPU stream needs row payloads");
  DNNLIFE_EXPECTS(rows_->dataflow() == npu_dataflow(config_),
                  "row payloads were built for another dataflow");
  DNNLIFE_EXPECTS(config_.fifo_tiles >= 1, "FIFO depth");
  geometry_.rows = config_.fifo_tiles * config_.tile_rows();
  geometry_.row_bits = config_.array_dim * rows_->bits();
  geometry_.validate();
  tiles_ = static_cast<std::uint32_t>(
      util::ceil_div(rows_->rows(), config_.tile_rows()));
  DNNLIFE_ENSURES(tiles_ >= 1, "network produced no weight rows");
}

}  // namespace dnnlife::sim
