#include "quant/quantizer.hpp"

#include <algorithm>
#include <cmath>

namespace dnnlife::quant {

QuantParams make_symmetric_int8(double abs_max) {
  DNNLIFE_EXPECTS(abs_max >= 0.0, "abs_max must be non-negative");
  QuantParams params;
  // Degenerate all-zero tensor: any positive scale works.
  params.scale = abs_max > 0.0 ? abs_max / 127.0 : 1.0;
  params.zero_point = 0;
  params.q_min = -127;
  params.q_max = 127;
  return params;
}

QuantParams make_asymmetric_uint8(double min, double max) {
  DNNLIFE_EXPECTS(min <= max, "invalid range");
  // Widen to include zero so that w = 0 is exactly representable.
  min = std::min(min, 0.0);
  max = std::max(max, 0.0);
  QuantParams params;
  params.scale = (max > min) ? (max - min) / 255.0 : 1.0;
  params.zero_point =
      static_cast<std::int32_t>(std::lround(-min / params.scale));
  params.zero_point = std::clamp(params.zero_point, 0, 255);
  params.q_min = 0;
  params.q_max = 255;
  return params;
}

double dequantize(const QuantParams& params, std::int32_t code) {
  DNNLIFE_EXPECTS(code >= params.q_min && code <= params.q_max,
                  "code outside quantizer range");
  return params.scale * static_cast<double>(code - params.zero_point);
}

double max_rounding_error(const QuantParams& params) {
  return params.scale * 0.5;
}

}  // namespace dnnlife::quant
