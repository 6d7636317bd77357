// FNV-1a-64: the one byte-string hash behind simulation fingerprints
// (core/scenario.cpp), suite manifest hashes (core/scenario_suite.cpp)
// and simulation-store checksums (core/sim_store.cpp). Its output is
// persisted in journals, summaries and store files, so the constants are
// pinned by test vectors (tests/test_util_hash.cpp).
#pragma once

#include <cstdint>
#include <string_view>

namespace dnnlife::util {

/// The standard FNV-1a-64 offset basis.
inline constexpr std::uint64_t kFnv1a64OffsetBasis = 0xcbf29ce484222325ULL;

/// FNV-1a-64 of `bytes`, starting from `basis`. A different basis gives an
/// independent hash stream over the same bytes.
constexpr std::uint64_t fnv1a64(
    std::string_view bytes, std::uint64_t basis = kFnv1a64OffsetBasis) noexcept {
  std::uint64_t hash = basis;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace dnnlife::util
