// The Fig. 5 tiled dataflow: filters of every weighted layer are divided
// into sets of f; each set's weights stream as memory rows carrying N
// consecutive weights of each of the f filters (the Fig. 4b row layout
// W1<1>..WN<1> ... W1<f>..WN<f>).
//
// Sets narrower than f and filter tails shorter than N are zero-padded
// (hardware alignment padding). The resulting global row sequence is what
// both accelerator models slice into memory mappings; packing rows until
// the memory is full realises the paper's assumption (c) ("each block ...
// fits perfectly" to the on-chip memory).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dnn/network.hpp"
#include "util/bitops.hpp"

namespace dnnlife::sim {

struct DataflowConfig {
  std::uint32_t filters_per_set = 8;          ///< f
  std::uint32_t weights_per_filter_per_row = 8;  ///< N

  bool operator==(const DataflowConfig&) const = default;
};

/// How one weighted layer splits into dataflow rows: its filters are
/// grouped into `sets` of f, each set streaming `rows_per_set` rows of N
/// consecutive weights per filter.
struct LayerRowShape {
  std::uint64_t filters = 0;             ///< output channels / features
  std::uint64_t weights_per_filter = 0;
  std::uint64_t sets = 0;
  std::uint64_t rows_per_set = 0;

  LayerRowShape(const dnn::LayerSpec& layer, DataflowConfig config) noexcept;
  std::uint64_t rows() const noexcept { return sets * rows_per_set; }
};

/// Enumerates the dataflow's row sequence as weight indices.
class TiledRowSource {
 public:
  TiledRowSource(const dnn::Network& network, DataflowConfig config);

  const DataflowConfig& config() const noexcept { return config_; }
  /// Weight slots per row (f * N).
  std::uint32_t slots_per_row() const noexcept {
    return config_.filters_per_set * config_.weights_per_filter_per_row;
  }

  /// Total rows one inference streams through the weight memory.
  std::uint64_t total_rows() const noexcept { return total_rows_; }

  /// Visit rows in dataflow order: visit(row_index, slots), where
  /// `slots[j]` is the global weight index in slot j, or -1 for a padding
  /// slot (stored as zero bits). It is the reference row order: the
  /// payload oracle tests pack rows from it and compare them with
  /// sim::EncodedRows.
  template <class Visitor>
  void visit_rows(Visitor&& visit) const {
    const std::uint32_t f = config_.filters_per_set;
    const std::uint32_t n = config_.weights_per_filter_per_row;
    std::vector<std::int64_t> slots(slots_per_row());
    std::uint64_t row_index = 0;
    const auto& network = *network_;
    for (std::size_t w = 0; w < network.weighted_layers().size(); ++w) {
      const auto& layer = network.layers()[network.weighted_layers()[w]];
      const std::uint64_t layer_base = network.weight_offset(w);
      const LayerRowShape shape(layer, config_);
      for (std::uint64_t set = 0; set < shape.sets; ++set) {
        for (std::uint64_t r = 0; r < shape.rows_per_set; ++r) {
          for (std::uint32_t i = 0; i < f; ++i) {
            const std::uint64_t filter = set * f + i;
            for (std::uint32_t j = 0; j < n; ++j) {
              const std::uint64_t local = r * n + j;
              const std::size_t slot = static_cast<std::size_t>(i) * n + j;
              if (filter >= shape.filters ||
                  local >= shape.weights_per_filter) {
                slots[slot] = -1;
              } else {
                slots[slot] = static_cast<std::int64_t>(
                    layer_base + filter * shape.weights_per_filter + local);
              }
            }
          }
          visit(row_index, std::span<const std::int64_t>(slots));
          ++row_index;
        }
      }
    }
    DNNLIFE_ENSURES(row_index == total_rows_, "row enumeration count mismatch");
  }

 private:
  const dnn::Network* network_;
  DataflowConfig config_;
  std::uint64_t total_rows_ = 0;
};

}  // namespace dnnlife::sim
