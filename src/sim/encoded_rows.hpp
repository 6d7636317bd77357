// One inference's packed row payloads, built once and shared.
//
// Both tiled accelerator models (baseline accelerator and TPU-like NPU)
// stream the same Fig. 5 dataflow rows and differ only in where each row
// lands, so the payload words depend on (network, weight generation,
// format, dataflow) alone. EncodedRows is that immutable artifact: a
// stream's write_at(i) carries row(i) in place to a (row, block) that is
// a pure function of i, and every stream with the same key, in any sweep
// point, reads one copy (see core::SweepScheduler).
//
// The build is two fan-outs, whatever the layer count:
//  * Pass 1 (int8 only) scans (layer, chunk) items for each layer's range:
//    the two smallest and two largest 53-bit counter draws m of the layer
//    (dnn::WeightStreamer::range_of).
//  * Pass 2 packs (layer, set, row-tile) items in dataflow order straight
//    from the weight index. An int8 code is code(min draw) + #{T_k <= m}
//    over the layer's exact thresholds T_k on the draw
//    (quant::DrawCodes, built by the first item that packs the layer); no
//    weight is synthesised. float32 tiles synthesise their values
//    (WeightStreamer::fill) and encode each one.
// Why counting is exact: every step from m to the code — the inverse CDF,
// tail factor and float cast, then `/ scale`, lround, zero point and
// clamp — is monotone non-decreasing and exact or correctly rounded,
// except the libm `log`. In the negative half x = 1 - 2|u| = (2m + 1)
// 2^-53 exactly, so a draw step moves log(x) by 2^-52 / x while an ulp of
// log(x) is at most |log x| 2^-52: a step is >= 1 / (x |log x|) >= e ulp.
// In the positive half (m + 0.5) rounds to even, so x moves every second
// draw, by twice as much. Draws kDrawGuard = 1,024 apart are thus over
// 2,700 ulp apart in exact log(x), and no two `log` results each within
// 1,000 ulp (glibc: < 1) can come out of order. A draw within that band of
// a threshold or of the layer's extreme draws takes the scalar path, as
// does the range of a layer whose second-smallest or second-largest draw
// lies in the band. So the words equal WeightWordCodec::encode bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dnn/network.hpp"
#include "quant/word_codec.hpp"
#include "sim/dataflow.hpp"

namespace dnnlife::sim {

class EncodedRows {
 public:
  /// Canonical identity of the artifact built from these inputs.
  static std::string key_of(const std::string& network,
                            const dnn::WeightGenConfig& weights,
                            quant::WeightFormat format,
                            DataflowConfig dataflow);

  /// Encode and pack every weight of the codec's network in `dataflow`
  /// order (the two passes above), sharded over a `threads` budget (0 =
  /// hardware; the default builds serially).
  /// Every code is a pure function of (seed, layer, index) and every
  /// payload word is written by exactly one item, so the words are
  /// bit-identical for any budget.
  static std::shared_ptr<const EncodedRows> build(
      const quant::WeightWordCodec& codec, DataflowConfig dataflow,
      unsigned threads = 1);

  const std::string& key() const noexcept { return key_; }
  /// The network the rows were built from (an owned copy, so the artifact
  /// outlives the pipeline that built it).
  const dnn::Network& network() const noexcept { return network_; }
  quant::WeightFormat format() const noexcept { return format_; }
  unsigned bits() const noexcept { return quant::bits_per_weight(format_); }
  const DataflowConfig& dataflow() const noexcept { return dataflow_; }

  /// Rows one inference streams through the weight memory.
  std::uint64_t rows() const noexcept { return rows_; }
  /// 64-bit words per row payload; bits above f x N x bits() are zero.
  std::uint32_t words_per_row() const noexcept { return words_per_row_; }
  std::span<const std::uint64_t> row(std::uint64_t index) const noexcept {
    return {words_.get() + index * words_per_row_, words_per_row_};
  }

 private:
  EncodedRows(const dnn::Network& network, std::string key,
              quant::WeightFormat format, DataflowConfig dataflow);

  std::string key_;
  dnn::Network network_;
  quant::WeightFormat format_;
  DataflowConfig dataflow_;
  std::uint64_t rows_ = 0;
  std::uint32_t words_per_row_ = 0;
  /// rows_ x words_per_row_ words, allocated uninitialised: each build
  /// item zeroes the rows it owns before packing into them.
  std::unique_ptr<std::uint64_t[]> words_;
};

}  // namespace dnnlife::sim
