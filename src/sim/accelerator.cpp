#include "sim/accelerator.hpp"

#include "sim/compute_model.hpp"

namespace dnnlife::sim {

DataflowConfig baseline_dataflow(const BaselineAcceleratorConfig& config) noexcept {
  return DataflowConfig{config.pe_count, config.multipliers_per_pe};
}

BaselineWeightStream::BaselineWeightStream(const quant::WeightWordCodec& codec,
                                           BaselineAcceleratorConfig config)
    : BaselineWeightStream(EncodedRows::build(codec, baseline_dataflow(config)),
                           config) {}

BaselineWeightStream::BaselineWeightStream(
    std::shared_ptr<const EncodedRows> rows, BaselineAcceleratorConfig config)
    : rows_(std::move(rows)), config_(config) {
  DNNLIFE_EXPECTS(rows_ != nullptr, "baseline stream needs row payloads");
  DNNLIFE_EXPECTS(rows_->dataflow() == baseline_dataflow(config_),
                  "row payloads were built for another dataflow");
  const std::uint32_t row_bits =
      config_.pe_count * config_.multipliers_per_pe * rows_->bits();
  geometry_ = geometry_from_capacity(config_.weight_memory_bytes, row_bits);
  // Double buffering fills the memory half-image by half-image; the
  // geometry (the physical cells under study) is unchanged.
  image_rows_ = config_.double_buffered ? geometry_.rows / 2 : geometry_.rows;
  DNNLIFE_EXPECTS(image_rows_ >= 1, "memory too small for double buffering");
  blocks_ = static_cast<std::uint32_t>(
      util::ceil_div(rows_->rows(), image_rows_));
  DNNLIFE_ENSURES(blocks_ >= 1, "network produced no weight rows");
  if (config_.compute_weighted_residency) {
    const auto& network = rows_->network();
    const auto segments = dataflow_row_costs(
        network, rows_->dataflow(), dnn::default_input_shape(network.name()));
    durations_ = block_durations_from_costs(segments, image_rows_);
    DNNLIFE_ENSURES(durations_.size() == blocks_,
                    "duration/block count mismatch");
  }
}

}  // namespace dnnlife::sim
