#include "sim/encoded_rows.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "util/executor.hpp"

namespace dnnlife::sim {

namespace {

/// Weights per synthesis chunk of the min/max pass, and the most values
/// one pack tile synthesises.
constexpr std::uint64_t kChunkWeights = std::uint64_t{1} << 12;

/// A quantised layer of up to this many weights (16 MiB of floats) keeps
/// its values from the min/max pass for the pack pass. A larger one — only
/// the big fully-connected layers of AlexNet and VGG16 — is synthesised
/// again tile by tile, so the transient memory stays bounded.
constexpr std::uint64_t kKeepWeights = std::uint64_t{1} << 22;

/// Run fn(i) for every i in [0, n) under a `threads` budget; inline, with
/// no executor round-trip, at a budget of 1.
template <class Fn>
void for_each_index(std::uint64_t n, unsigned threads, const Fn& fn) {
  if (threads <= 1 || n <= 1) {
    for (std::uint64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  util::TaskGroup group;
  group.submit_items(n, threads, [&fn](std::size_t i) { fn(i); });
  group.wait();
}

}  // namespace

std::string EncodedRows::key_of(const std::string& network,
                                const dnn::WeightGenConfig& weights,
                                quant::WeightFormat format,
                                DataflowConfig dataflow) {
  char text[160];
  std::snprintf(
      text, sizeof text, "|%d|%llu|%016llx|%016llx|%s|%u|%u",
      static_cast<int>(weights.distribution),
      static_cast<unsigned long long>(weights.seed),
      static_cast<unsigned long long>(
          std::bit_cast<std::uint64_t>(weights.sigma_scale)),
      static_cast<unsigned long long>(
          std::bit_cast<std::uint64_t>(weights.tail_asymmetry)),
      quant::to_string(format).c_str(), dataflow.filters_per_set,
      dataflow.weights_per_filter_per_row);
  return network + text;
}

EncodedRows::EncodedRows(const dnn::Network& network, std::string key,
                         quant::WeightFormat format, DataflowConfig dataflow)
    : key_(std::move(key)), network_(network), format_(format),
      dataflow_(dataflow) {
  const TiledRowSource source(network_, dataflow_);
  rows_ = source.total_rows();
  words_per_row_ = static_cast<std::uint32_t>(
      util::ceil_div(std::uint64_t{source.slots_per_row()} * bits(), 64));
  words_.resize(rows_ * words_per_row_);  // padding slots stay zero
}

std::shared_ptr<const EncodedRows> EncodedRows::build(
    const quant::WeightWordCodec& codec, DataflowConfig dataflow,
    unsigned threads) {
  const dnn::WeightStreamer& streamer = codec.streamer();
  const dnn::Network& network = streamer.network();
  const quant::WeightFormat format = codec.format();
  std::shared_ptr<EncodedRows> out(new EncodedRows(
      network, key_of(network.name(), streamer.config(), format, dataflow),
      format, dataflow));
  threads = util::resolve_thread_count(threads);
  const bool quantised = format != quant::WeightFormat::kFloat32;
  const unsigned bits = codec.bits();
  const std::uint32_t f = dataflow.filters_per_set;
  const std::uint32_t n = dataflow.weights_per_filter_per_row;
  // Rows per pack tile: a tile synthesises at most ~kChunkWeights values.
  const std::uint64_t tile_rows =
      std::max<std::uint64_t>(1, kChunkWeights / (std::uint64_t{f} * n));
  std::vector<float> kept;
  std::uint64_t row_base = 0;
  for (std::size_t w = 0; w < network.weighted_layers().size(); ++w) {
    const LayerRowShape shape(network.layers()[network.weighted_layers()[w]],
                              dataflow);
    const std::uint64_t count = streamer.layer_weight_count(w);
    const std::uint64_t wpf = shape.weights_per_filter;
    const bool keep = quantised && count <= kKeepWeights;

    // Min/max pass (int8 only): chunk ranges fold in index order.
    quant::QuantParams params;
    if (quantised) {
      if (keep) kept.resize(count);
      std::vector<dnn::WeightRange> ranges(
          util::ceil_div(count, kChunkWeights));
      for_each_index(ranges.size(), threads, [&](std::uint64_t chunk) {
        const std::uint64_t begin = chunk * kChunkWeights;
        const std::uint64_t size = std::min(kChunkWeights, count - begin);
        std::vector<float> scratch(keep ? 0 : size);
        const std::span<float> values(
            keep ? kept.data() + begin : scratch.data(), size);
        streamer.fill(w, begin, values);
        ranges[chunk].fold(values);
      });
      dnn::WeightRange range;
      for (const dnn::WeightRange& part : ranges) range.merge(part);
      params = quant::layer_quant_params(format, range);
    }

    // Pack pass over (set, row range) tiles: a tile owns whole rows, so
    // each payload word is written by exactly one shard.
    const std::uint64_t tiles_per_set =
        util::ceil_div(shape.rows_per_set, tile_rows);
    for_each_index(shape.sets * tiles_per_set, threads, [&](std::uint64_t tile) {
      const std::uint64_t set = tile / tiles_per_set;
      const std::uint64_t r0 = (tile % tiles_per_set) * tile_rows;
      const std::uint64_t r1 = std::min(shape.rows_per_set, r0 + tile_rows);
      const std::uint64_t filters =
          std::min<std::uint64_t>(f, shape.filters - set * f);
      // Filter i's value at layer-local offset l (within the filter) is
      // values[i * stride + l - origin].
      const std::uint64_t lo = r0 * n;
      const std::uint64_t hi = std::min(r1 * n, wpf);
      std::vector<float> scratch;
      const float* values = nullptr;
      std::uint64_t stride = wpf;
      std::uint64_t origin = 0;
      if (keep) {
        values = kept.data() + set * f * wpf;
      } else {
        stride = hi - lo;
        origin = lo;
        scratch.resize(filters * stride);
        for (std::uint64_t i = 0; i < filters; ++i)
          streamer.fill(w, (set * f + i) * wpf + lo,
                        std::span<float>(scratch.data() + i * stride, stride));
        values = scratch.data();
      }
      for (std::uint64_t r = r0; r < r1; ++r) {
        std::uint64_t* words =
            out->words_.data() +
            (row_base + set * shape.rows_per_set + r) * out->words_per_row_;
        for (std::uint64_t i = 0; i < filters; ++i) {
          for (std::uint32_t j = 0; j < n && r * n + j < wpf; ++j) {
            const std::uint64_t word = quant::encode_word(
                format, params, values[i * stride + r * n + j - origin]);
            const std::uint64_t bit_pos = (i * n + j) * bits;
            const unsigned shift = bit_pos % 64;
            words[bit_pos / 64] |= word << shift;
            if (shift + bits > 64) words[bit_pos / 64 + 1] |= word >> (64 - shift);
          }
        }
      }
    });
    row_base += shape.rows();
  }
  DNNLIFE_ENSURES(row_base == out->rows_, "row enumeration count mismatch");
  return out;
}

}  // namespace dnnlife::sim
