// Sample statistics for the benchmark's reported timings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dnnlife_bench {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty set.
double median(std::vector<double> samples);

/// A nearest-rank percentile with the evidence behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count the percentile was taken over
  std::size_t beyond = 0;   ///< samples strictly above its rank
  /// True when at least `min_beyond` samples lie beyond the percentile —
  /// the rule for reporting a tail percentile at all.
  bool resolved = false;
};

/// Nearest-rank percentile `q` in (0, 1]: the ceil(q * n)-th smallest
/// sample. A p90 is resolved from 100 samples on (10 beyond it).
Percentile percentile(std::vector<double> samples, double q,
                      std::size_t min_beyond = 10);

/// FNV-1a-64 of `text` as 16 hex digits (the summary digests).
std::string hex_digest(std::string_view text);

}  // namespace dnnlife_bench
