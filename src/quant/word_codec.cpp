#include "quant/word_codec.hpp"

#include <cmath>

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

DrawCodes::DrawCodes(const dnn::WeightStreamer& streamer, std::size_t w,
                     const QuantParams& params, std::uint64_t low,
                     std::uint64_t high)
    : streamer_(&streamer), w_(w), params_(params) {
  DNNLIFE_EXPECTS(low <= high && high < (std::uint64_t{1} << 53),
                  "draw range outside [0, 2^53)");
  low_code_ = scalar_code(low);
  bounds_.push_back(low);
  const std::int32_t high_code = scalar_code(high);
  for (std::int32_t code = low_code_ + 1; code <= high_code; ++code)
    bounds_.push_back(first_reaching(code, bounds_.back(), high));
  bounds_.push_back(high + 1);
  buckets_.resize(std::size_t{1} << (53 - kBucketShift));
  std::size_t k = 0;
  for (std::size_t bucket = 0; bucket < buckets_.size(); ++bucket) {
    const std::uint64_t first = std::uint64_t{bucket} << kBucketShift;
    const std::uint64_t last = first + (std::uint64_t{1} << kBucketShift) - 1;
    while (k + 2 < bounds_.size() && bounds_[k + 1] <= first) ++k;
    constexpr std::uint64_t kGuard = dnn::WeightStreamer::kDrawGuard;
    const bool clear = bounds_[k] + kGuard < first &&
                       last + kGuard < bounds_[k + 1];
    buckets_[bucket] = static_cast<std::uint16_t>(
        clear ? static_cast<std::uint8_t>(low_code_ + static_cast<int>(k))
              : kMixed + k);
  }
}

std::uint64_t DrawCodes::first_reaching(std::int32_t code, std::uint64_t lo,
                                        std::uint64_t hi) const {
  if (scalar_code(lo) >= code) return lo;
  // The smallest float whose code reaches `code`, stepped from the real
  // boundary; the double midpoint below it is where the cast steps.
  const double step = static_cast<double>(code - params_.zero_point) - 0.5;
  float value = static_cast<float>(step * params_.scale);
  while (quantize(params_, value) >= code)
    value = std::nextafter(value, -HUGE_VALF);
  while (quantize(params_, value) < code)
    value = std::nextafter(value, HUGE_VALF);
  const double edge =
      (static_cast<double>(std::nextafter(value, -HUGE_VALF)) + value) / 2.0;
  const double near = streamer_->draw_near(w_, edge);
  // Gallop out from the guess until [lo, hi] brackets the step, then
  // bisect: invariant code(lo) < code <= code(hi).
  std::uint64_t probe =
      near <= static_cast<double>(lo) ? lo + 1
      : near >= static_cast<double>(hi) ? hi
                                        : static_cast<std::uint64_t>(near);
  for (std::uint64_t reach = 1; lo + 1 < hi; reach *= 2) {
    if (scalar_code(probe) >= code) {
      hi = probe;
      probe = hi - lo > reach ? hi - reach : lo;
    } else {
      lo = probe;
      probe = hi - lo > reach ? lo + reach : hi;
    }
    if (probe == lo || probe == hi) break;
  }
  while (lo + 1 < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (scalar_code(mid) >= code ? hi : lo) = mid;
  }
  return hi;
}

}  // namespace dnnlife::quant
