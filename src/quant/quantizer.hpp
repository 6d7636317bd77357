// Range-linear post-training quantization (the two methods of Sec. III-A).
//
//  * Symmetric:  q = round(w / s),            s = max|w| / 127, q in [-127, 127]
//                stored as two's-complement int8.
//  * Asymmetric: q = round(w / s) + z,        s = (max - min) / 255,
//                z = round(-min / s), q in [0, 255], stored as uint8.
//
// Both follow the range-linear scheme of Lin et al. (ICML'16) referenced by
// the paper as [24].
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.hpp"

namespace dnnlife::quant {

/// Parameters of an affine (range-linear) int8 quantizer for one tensor.
struct QuantParams {
  double scale = 1.0;      ///< step size
  std::int32_t zero_point = 0;  ///< 0 for symmetric
  std::int32_t q_min = -127;
  std::int32_t q_max = 127;
};

/// Build symmetric int8 parameters from the tensor's absolute maximum.
QuantParams make_symmetric_int8(double abs_max);

/// Build asymmetric uint8 parameters from the tensor's [min, max] range.
/// The range is widened to include 0 so the zero weight is representable
/// exactly (standard practice).
QuantParams make_asymmetric_uint8(double min, double max);

/// Quantize a real value to the integer grid (round-half-away-from-zero,
/// clamped to [q_min, q_max]). Inline: the payload build runs it once per
/// weight.
inline std::int32_t quantize(const QuantParams& params, double value) {
  const double scaled = value / params.scale;
  const auto rounded = static_cast<std::int32_t>(
      std::lround(scaled));  // lround = round half away from zero
  return std::clamp(rounded + params.zero_point, params.q_min, params.q_max);
}

/// Reconstruct the real value of an integer code.
double dequantize(const QuantParams& params, std::int32_t code);

/// Worst-case reconstruction error of a value inside the covered range.
double max_rounding_error(const QuantParams& params);

}  // namespace dnnlife::quant
