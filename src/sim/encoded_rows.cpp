#include "sim/encoded_rows.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <mutex>
#include <optional>

#include "util/executor.hpp"

namespace dnnlife::sim {

namespace {

/// Weights per pass-1 scan item.
constexpr std::uint64_t kScanWeights = std::uint64_t{1} << 16;
/// A pass-2 tile holds whole rows of at most ~this many weights (one row
/// if a row holds more), synthesised into per-tile scratch.
constexpr std::uint64_t kTileWeights = std::uint64_t{1} << 12;

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

/// The layer a fan-out item belongs to, given each layer's first item
/// (non-decreasing, first[0] = 0, one past the last layer at the end).
std::size_t layer_of_item(const std::vector<std::uint64_t>& first,
                          std::uint64_t item) {
  return static_cast<std::size_t>(
      std::upper_bound(first.begin(), first.end(), item) - first.begin() - 1);
}

}  // namespace

std::string EncodedRows::key_of(const std::string& network,
                                const dnn::WeightGenConfig& weights,
                                quant::WeightFormat format,
                                DataflowConfig dataflow) {
  char text[160];
  std::snprintf(
      text, sizeof text, "|%llu|%016llx|%016llx|%s|%u|%u",
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
  words_ = std::make_unique_for_overwrite<std::uint64_t[]>(rows_ *
                                                          words_per_row_);
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
  const std::size_t layers = network.weighted_layers().size();
  const bool quantised = format != quant::WeightFormat::kFloat32;
  const unsigned bits = codec.bits();
  DNNLIFE_EXPECTS(64 % bits == 0, "a slot must not straddle payload words");
  const std::uint32_t f = dataflow.filters_per_set;
  const std::uint32_t n = dataflow.weights_per_filter_per_row;
  const std::uint64_t tile_rows =
      std::max<std::uint64_t>(1, kTileWeights / (std::uint64_t{f} * n));

  // Pass 1 (int8 only): one fan-out over (layer, chunk) range scans.
  std::vector<dnn::RangeScan> scans(layers);
  std::vector<quant::QuantParams> params(layers);
  if (quantised) {
    std::vector<std::uint64_t> first(layers + 1, 0);
    for (std::size_t w = 0; w < layers; ++w)
      first[w + 1] = first[w] + util::ceil_div(streamer.layer_weight_count(w),
                                               kScanWeights);
    std::vector<dnn::RangeScan> parts(first.back());
    for_each_index(parts.size(), threads, [&](std::uint64_t item) {
      const std::size_t w = layer_of_item(first, item);
      const std::uint64_t begin = (item - first[w]) * kScanWeights;
      parts[item] = streamer.scan_range(
          w, begin,
          std::min(kScanWeights, streamer.layer_weight_count(w) - begin));
    });
    for (std::size_t w = 0; w < layers; ++w) {
      for (std::uint64_t item = first[w]; item < first[w + 1]; ++item)
        scans[w].merge(parts[item]);
      params[w] = quant::layer_quant_params(format,
                                            streamer.range_of(w, scans[w]));
    }
  }

  // Pass 2: one fan-out over (layer, set, row-tile) items. A tile owns
  // whole rows, so each payload word is written by exactly one item.
  std::vector<LayerRowShape> shapes;
  std::vector<std::uint64_t> first(1, 0);
  std::vector<std::uint64_t> row_base(1, 0);
  for (std::size_t w = 0; w < layers; ++w) {
    shapes.emplace_back(network.layers()[network.weighted_layers()[w]],
                        dataflow);
    first.push_back(first.back() +
                    shapes[w].sets *
                        util::ceil_div(shapes[w].rows_per_set, tile_rows));
    row_base.push_back(row_base.back() + shapes[w].rows());
  }
  DNNLIFE_ENSURES(row_base.back() == out->rows_,
                  "row enumeration count mismatch");
  // A layer's draw thresholds are built by the first item that packs it.
  std::vector<std::optional<quant::DrawCodes>> codes(quantised ? layers : 0);
  std::vector<std::once_flag> codes_once(codes.size());
  for_each_index(first.back(), threads, [&](std::uint64_t item) {
    const std::size_t w = layer_of_item(first, item);
    const LayerRowShape& shape = shapes[w];
    const std::uint64_t wpf = shape.weights_per_filter;
    const std::uint64_t tiles_per_set =
        util::ceil_div(shape.rows_per_set, tile_rows);
    const std::uint64_t set = (item - first[w]) / tiles_per_set;
    const std::uint64_t r0 = (item - first[w]) % tiles_per_set * tile_rows;
    const std::uint64_t r1 = std::min(shape.rows_per_set, r0 + tile_rows);
    const std::uint64_t filters =
        std::min<std::uint64_t>(f, shape.filters - set * f);
    // The tile covers offsets [lo, lo + stride) of each filter, which are
    // contiguous weights: synthesise them filter by filter (draws for int8,
    // values for float32), element (i, l) at i * stride + l - lo.
    const std::uint64_t lo = r0 * n;
    const std::uint64_t stride = std::min(r1 * n, wpf) - lo;
    const auto first_index = [&](std::uint64_t i) {
      return (set * f + i) * wpf + lo;
    };
    // Slot (i, j) of row r holds filter i's weight at offset r * n + j;
    // word_of(element) encodes it. One flat loop per row: n is 1 on the
    // NPU.
    std::uint64_t* const tile_words =
        out->words_.get() +
        (row_base[w] + set * shape.rows_per_set + r0) * out->words_per_row_;
    std::fill_n(tile_words, (r1 - r0) * out->words_per_row_, 0);  // padding too
    const auto pack = [&](const auto& word_of) {
      for (std::uint64_t r = r0; r < r1; ++r) {
        std::uint64_t* words = tile_words + (r - r0) * out->words_per_row_;
        const std::uint64_t used = std::min<std::uint64_t>(n, wpf - r * n);
        for (std::uint64_t i = 0, j = 0; i < filters;) {
          const std::uint64_t bit = (i * n + j) * bits;
          words[bit / 64] |= word_of(i * stride + r * n + j - lo) << (bit % 64);
          if (++j == used) {
            j = 0;
            ++i;
          }
        }
      }
    };
    if (quantised) {
      std::call_once(codes_once[w], [&] {
        codes[w].emplace(streamer, w, params[w], scans[w].low[0],
                         scans[w].high[0]);
      });
      std::vector<std::uint64_t> draws(filters * stride);
      for (std::uint64_t i = 0; i < filters; ++i)
        streamer.layer_rng(w).draws_at(
            first_index(i),
            std::span<std::uint64_t>(draws.data() + i * stride, stride));
      const quant::DrawCodes& table = *codes[w];
      pack([&](std::uint64_t k) { return table.word_at(draws[k]); });
      return;
    }
    std::vector<float> values(filters * stride);
    for (std::uint64_t i = 0; i < filters; ++i)
      streamer.fill(w, first_index(i),
                    std::span<float>(values.data() + i * stride, stride));
    pack([&](std::uint64_t k) {
      return quant::encode_word(format, params[w], values[k]);
    });
  });
  return out;
}

}  // namespace dnnlife::sim
