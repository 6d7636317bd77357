// TPU-like NPU model (paper Sec. V-B, Fig. 11): a 256x256 MAC array fed by
// an on-chip weight FIFO that is four tiles deep, managed as a circular
// buffer. One tile holds the weights for the whole PE array
// (256 x 256 weights); tile t lands in FIFO slot t mod depth.
//
// Table I configuration: 256 KB weight FIFO (4 tiles x 64 KB at 8-bit),
// 24 MB activation memory, f = 256.
#pragma once

#include <cstdint>
#include <memory>

#include "quant/word_codec.hpp"
#include "sim/dataflow.hpp"
#include "sim/encoded_rows.hpp"
#include "sim/write_stream.hpp"

namespace dnnlife::sim {

struct TpuNpuConfig {
  std::uint32_t array_dim = 256;  ///< PE array is array_dim x array_dim
  std::uint32_t fifo_tiles = 4;   ///< FIFO depth in tiles
  std::uint64_t activation_memory_bytes = 24 * 1024 * 1024;

  /// Rows of one tile (one row per PE-array row).
  std::uint32_t tile_rows() const noexcept { return array_dim; }
};

/// The dataflow the NPU streams: f = array_dim filters in parallel, one
/// weight each per row.
DataflowConfig npu_dataflow(const TpuNpuConfig& config) noexcept;

class NpuWeightStream final : public WriteStream {
 public:
  /// Build the row payloads of the codec's network (serially; see
  /// EncodedRows::build for a parallel build).
  NpuWeightStream(const quant::WeightWordCodec& codec, TpuNpuConfig config = {});
  /// Replay prebuilt payloads; their dataflow must be npu_dataflow(config).
  NpuWeightStream(std::shared_ptr<const EncodedRows> rows,
                  TpuNpuConfig config = {});

  MemoryGeometry geometry() const override { return geometry_; }
  /// One mapping slot per tile streamed through the FIFO.
  std::uint32_t blocks_per_inference() const override { return tiles_; }
  std::uint64_t writes_per_inference() const override {
    return rows_->rows();
  }
  /// The ordinal-th dataflow row at its FIFO slot placement — a pure
  /// function of the ordinal (circular buffer of fifo_tiles tiles).
  RowWriteEvent write_at(std::uint64_t ordinal) const override {
    const std::uint32_t tile_rows = config_.tile_rows();
    const auto tile = static_cast<std::uint32_t>(ordinal / tile_rows);
    const std::uint32_t slot = tile % config_.fifo_tiles;
    RowWriteEvent event;
    event.row =
        slot * tile_rows + static_cast<std::uint32_t>(ordinal % tile_rows);
    event.block = tile;
    event.words = rows_->row(ordinal);
    return event;
  }

  const TpuNpuConfig& config() const noexcept { return config_; }

 private:
  std::shared_ptr<const EncodedRows> rows_;
  TpuNpuConfig config_;
  MemoryGeometry geometry_;
  std::uint32_t tiles_ = 0;
};

}  // namespace dnnlife::sim
