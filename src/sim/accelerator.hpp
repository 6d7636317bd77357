// The baseline dense DNN accelerator of the paper's Sec. II-A (Fig. 4a):
// activation buffer, weight buffer, f PEs of N multipliers each. Its weight
// memory receives the Fig. 5 dataflow rows packed back-to-back; every time
// the memory fills, one mapping (block) completes.
//
// Table I configuration: 512 KB weight memory, 4 MB activation memory,
// 8 PEs x 8 multipliers (f = 8, N = 8).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "quant/word_codec.hpp"
#include "sim/dataflow.hpp"
#include "sim/encoded_rows.hpp"
#include "sim/write_stream.hpp"

namespace dnnlife::sim {

struct BaselineAcceleratorConfig {
  std::uint64_t weight_memory_bytes = 512 * 1024;
  std::uint64_t activation_memory_bytes = 4 * 1024 * 1024;
  std::uint32_t pe_count = 8;           ///< f: filters processed in parallel
  std::uint32_t multipliers_per_pe = 8; ///< N: weights per filter per row
  /// Weight block residency by compute time instead of the paper's
  /// equal-residency assumption (b); needs a registered input shape for
  /// the network (see dnn::default_input_shape).
  bool compute_weighted_residency = false;
  /// Ping-pong the weight memory: writes fill one half while the array
  /// reads the other (standard double buffering). Each half then sees
  /// only every other block, halving the per-cell K — a realistic
  /// configuration the paper's single-buffer model does not cover.
  bool double_buffered = false;
};

/// The dataflow the baseline accelerator streams: f = pe_count filters,
/// N = multipliers_per_pe weights each per row.
DataflowConfig baseline_dataflow(const BaselineAcceleratorConfig& config) noexcept;

/// Write stream of one inference on the baseline accelerator.
class BaselineWeightStream final : public WriteStream {
 public:
  /// Build the row payloads of the codec's network (serially; see
  /// EncodedRows::build for a parallel build).
  BaselineWeightStream(const quant::WeightWordCodec& codec,
                       BaselineAcceleratorConfig config = {});
  /// Replay prebuilt payloads; their dataflow must be
  /// baseline_dataflow(config).
  BaselineWeightStream(std::shared_ptr<const EncodedRows> rows,
                       BaselineAcceleratorConfig config = {});

  MemoryGeometry geometry() const override { return geometry_; }
  std::uint32_t blocks_per_inference() const override { return blocks_; }
  std::uint64_t writes_per_inference() const override {
    return rows_->rows();
  }
  /// The ordinal-th dataflow row, landing at a (row, block) that is a pure
  /// function of the ordinal, so the shared payloads need no per-write
  /// metadata.
  RowWriteEvent write_at(std::uint64_t ordinal) const override {
    RowWriteEvent event;
    const auto block = static_cast<std::uint32_t>(ordinal / image_rows_);
    const auto image_row = static_cast<std::uint32_t>(ordinal % image_rows_);
    // Double buffering: odd blocks land in the upper half.
    event.row = config_.double_buffered
                    ? image_row + (block % 2) * image_rows_
                    : image_row;
    event.block = block;
    event.words = rows_->row(ordinal);
    return event;
  }
  std::vector<std::uint32_t> block_durations() const override {
    return durations_;
  }

  const BaselineAcceleratorConfig& config() const noexcept { return config_; }

 private:
  std::shared_ptr<const EncodedRows> rows_;
  BaselineAcceleratorConfig config_;
  MemoryGeometry geometry_;
  std::uint32_t blocks_ = 0;
  std::uint32_t image_rows_ = 0;  ///< rows filled per mapping
  std::vector<std::uint32_t> durations_;  // empty = uniform
};

}  // namespace dnnlife::sim
