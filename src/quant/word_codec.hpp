// Weight-word codecs: map a network's weights to the bit words that are
// written into the on-chip weight memory, for each of the paper's three
// data representation formats.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dnn/weight_gen.hpp"
#include "quant/float_bits.hpp"
#include "quant/quantizer.hpp"

namespace dnnlife::quant {

/// The three representation formats studied in Sec. III / Sec. V.
enum class WeightFormat {
  kFloat32,        ///< IEEE 754 binary32
  kInt8Symmetric,  ///< two's-complement int8, symmetric range-linear
  kInt8Asymmetric, ///< uint8 with zero-point, asymmetric range-linear
};

/// Storage width of one weight in the given format.
unsigned bits_per_weight(WeightFormat format);

std::string to_string(WeightFormat format);

/// Inverse of to_string(WeightFormat) — round-trips every format. Throws
/// std::invalid_argument (listing the valid names) for anything else.
WeightFormat weight_format_from_string(std::string_view name);

/// Per-tensor quantization parameters of a layer whose weights span
/// `range`, for an int8 format.
QuantParams layer_quant_params(WeightFormat format,
                               const dnn::WeightRange& range);

/// The stored word (low bits_per_weight(format) bits) of `value`;
/// `params` is ignored for float32. Inline: the payload build runs it once
/// per weight.
inline std::uint64_t encode_word(WeightFormat format,
                                 const QuantParams& params, float value) {
  if (format == WeightFormat::kFloat32) return float_to_bits(value);
  // Two's-complement low byte (symmetric) or the uint8 code (asymmetric).
  return static_cast<std::uint64_t>(
      static_cast<std::uint8_t>(quantize(params, value)));
}

/// Encodes weights of one network into memory words. Quantization
/// parameters are per-layer (per-tensor granularity, the standard
/// post-training setting), computed for every layer on first use from the
/// streamer's layer ranges; construction synthesises nothing.
class WeightWordCodec {
 public:
  WeightWordCodec(const dnn::WeightStreamer& streamer, WeightFormat format);

  WeightFormat format() const noexcept { return format_; }
  unsigned bits() const noexcept { return bits_; }
  const dnn::WeightStreamer& streamer() const noexcept { return *streamer_; }

  /// The stored word (low `bits()` bits) for global weight index `g`.
  std::uint64_t encode(std::uint64_t g) const;

  /// Reconstructed real value of a stored word belonging to weight `g`
  /// (g selects the layer and hence the quantization parameters).
  double decode(std::uint64_t g, std::uint64_t word) const;

  /// Quantization parameters of weighted layer `w` (int8 formats only).
  const QuantParams& layer_params(std::size_t w) const;

 private:
  const dnn::WeightStreamer* streamer_;  // non-owning
  WeightFormat format_;
  unsigned bits_;
  mutable std::once_flag params_once_;
  mutable std::vector<QuantParams> params_;

  const QuantParams& params_for(std::uint64_t g) const;
};

}  // namespace dnnlife::quant
