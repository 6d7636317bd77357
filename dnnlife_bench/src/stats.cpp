#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace dnnlife_bench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower = *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

Percentile percentile(std::vector<double> samples, double q,
                      std::size_t min_beyond) {
  Percentile result;
  result.samples = samples.size();
  if (samples.empty()) return result;
  std::sort(samples.begin(), samples.end());
  const double exact = q * static_cast<double>(samples.size());
  // Nearest rank; the epsilon keeps q * n that is integral in exact
  // arithmetic (0.9 * 100) from rounding up a rank in binary.
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  result.value = samples[rank - 1];
  result.beyond = samples.size() - rank;
  result.resolved = result.beyond >= min_beyond;
  return result;
}

std::string hex_digest(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(hex, 16);
}

}  // namespace dnnlife_bench
