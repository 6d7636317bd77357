// Weight-word codecs: map a network's weights to the bit words that are
// written into the on-chip weight memory, for each of the paper's three
// data representation formats.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
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

/// The int8 codes of one layer as thresholds on its counter draw m. The
/// code is non-decreasing in m (see sim/encoded_rows.hpp), so over
/// the layer's draws [low, high] code(m) = code(low) + #{k : T_k <= m},
/// where T_k is the first draw whose code reaches code(low) + k. Each T_k
/// is searched out of the scalar arithmetic itself: a guess from
/// WeightStreamer::draw_near at the float where the code steps, then
/// bisection on m with value_at_draw() and quantize(). A draw within
/// kDrawGuard of any T_k, of low or of high takes that scalar path.
/// word_at() looks m's top bits up in a bucket table: most buckets hold no
/// threshold and no band and give the word at once.
class DrawCodes {
 public:
  /// Thresholds of weighted layer `w` quantised to int8 by `params`, over
  /// draws [low, high] (low <= high < 2^53).
  DrawCodes(const dnn::WeightStreamer& streamer, std::size_t w,
            const QuantParams& params, std::uint64_t low, std::uint64_t high);

  /// The stored word of draw m in [low, high]: equals encode_word(format,
  /// params, streamer.value_at_draw(w, m)) for either int8 format.
  std::uint64_t word_at(std::uint64_t m) const {
    const std::uint16_t bucket = buckets_[m >> kBucketShift];
    if (bucket < kMixed) return bucket;  // one code, clear of every band
    std::size_t k = bucket - kMixed;
    while (bounds_[k + 1] <= m) ++k;
    constexpr std::uint64_t kGuard = dnn::WeightStreamer::kDrawGuard;
    const std::int32_t code =
        m - bounds_[k] <= kGuard || bounds_[k + 1] - m <= kGuard
            ? scalar_code(m)
            : low_code_ + static_cast<std::int32_t>(k);
    return static_cast<std::uint8_t>(code);
  }

  /// The code of draw m by the scalar path (int8 code, or uint8 code for
  /// int8-asymmetric, before the two's-complement store).
  std::int32_t scalar_code(std::uint64_t m) const {
    return quantize(params_, streamer_->value_at_draw(w_, m));
  }

  /// code(low), and T_1..T_K in non-decreasing order.
  std::int32_t low_code() const noexcept { return low_code_; }
  std::span<const std::uint64_t> thresholds() const noexcept {
    return {bounds_.data() + 1, bounds_.size() - 2};
  }

 private:
  static constexpr unsigned kBucketShift = 53 - 12;  // 4,096 buckets
  /// A bucket entry below kMixed is the word of every draw in it; entry
  /// kMixed + k starts the threshold scan at count k.
  static constexpr std::uint16_t kMixed = 256;

  const dnn::WeightStreamer* streamer_;  // non-owning
  std::size_t w_;
  QuantParams params_;
  std::int32_t low_code_ = 0;
  std::vector<std::uint64_t> bounds_;  // low, T_1..T_K, high + 1
  std::vector<std::uint16_t> buckets_;  // on the top 12 bits of m

  /// The smallest draw in [lo, hi] whose code reaches `code`, given
  /// code(hi) >= code.
  std::uint64_t first_reaching(std::int32_t code, std::uint64_t lo,
                               std::uint64_t hi) const;
};

}  // namespace dnnlife::quant
