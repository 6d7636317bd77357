#include "quant/word_codec.hpp"

#include "quant/float_bits.hpp"
#include "util/bitops.hpp"

namespace dnnlife::quant {

unsigned bits_per_weight(WeightFormat format) {
  switch (format) {
    case WeightFormat::kFloat32: return 32;
    case WeightFormat::kInt8Symmetric:
    case WeightFormat::kInt8Asymmetric: return 8;
  }
  throw std::invalid_argument("unknown weight format");
}

std::string to_string(WeightFormat format) {
  switch (format) {
    case WeightFormat::kFloat32: return "float32";
    case WeightFormat::kInt8Symmetric: return "int8-symmetric";
    case WeightFormat::kInt8Asymmetric: return "int8-asymmetric";
  }
  return "unknown";
}

WeightFormat weight_format_from_string(std::string_view name) {
  for (const WeightFormat format :
       {WeightFormat::kFloat32, WeightFormat::kInt8Symmetric,
        WeightFormat::kInt8Asymmetric}) {
    if (name == to_string(format)) return format;
  }
  throw std::invalid_argument(
      "unknown weight format '" + std::string(name) +
      "' (expected one of: float32, int8-symmetric, int8-asymmetric)");
}

QuantParams layer_quant_params(WeightFormat format,
                               const dnn::WeightRange& range) {
  switch (format) {
    case WeightFormat::kInt8Symmetric:
      return make_symmetric_int8(range.abs_max());
    case WeightFormat::kInt8Asymmetric:
      return make_asymmetric_uint8(range.min, range.max);
    case WeightFormat::kFloat32:
      break;
  }
  throw std::invalid_argument("float32 has no quantization parameters");
}

WeightWordCodec::WeightWordCodec(const dnn::WeightStreamer& streamer,
                                 WeightFormat format)
    : streamer_(&streamer), format_(format), bits_(bits_per_weight(format)) {}

const QuantParams& WeightWordCodec::layer_params(std::size_t w) const {
  DNNLIFE_EXPECTS(format_ != WeightFormat::kFloat32,
                  "float32 has no quantization parameters");
  // Every layer at once, under call_once: encode/decode touch all layers
  // on any full pass anyway, and the filled vector is then read-only, so
  // the codec is safe to share across threads with no per-call locking.
  std::call_once(params_once_, [this] {
    const std::size_t layers = streamer_->network().weighted_layers().size();
    params_.reserve(layers);
    for (std::size_t layer = 0; layer < layers; ++layer)
      params_.push_back(
          layer_quant_params(format_, streamer_->layer_range(layer)));
  });
  DNNLIFE_EXPECTS(w < params_.size(), "weighted-layer index out of range");
  return params_[w];
}

const QuantParams& WeightWordCodec::params_for(std::uint64_t g) const {
  return layer_params(streamer_->network().weighted_layer_of(g));
}

std::uint64_t WeightWordCodec::encode(std::uint64_t g) const {
  const float value = streamer_->weight(g);
  if (format_ == WeightFormat::kFloat32)
    return encode_word(format_, QuantParams{}, value);
  return encode_word(format_, params_for(g), value);
}

double WeightWordCodec::decode(std::uint64_t g, std::uint64_t word) const {
  DNNLIFE_EXPECTS((word & ~util::low_mask(bits_)) == 0, "word wider than format");
  switch (format_) {
    case WeightFormat::kFloat32:
      return static_cast<double>(bits_to_float(static_cast<std::uint32_t>(word)));
    case WeightFormat::kInt8Symmetric: {
      const auto code = static_cast<std::int8_t>(static_cast<std::uint8_t>(word));
      return dequantize(params_for(g), code);
    }
    case WeightFormat::kInt8Asymmetric: {
      const auto code = static_cast<std::int32_t>(word & 0xffu);
      return dequantize(params_for(g), code);
    }
  }
  throw std::logic_error("unknown weight format");
}

}  // namespace dnnlife::quant
