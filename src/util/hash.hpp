// The framework's byte hashes. Every output of them is persisted, so the
// constants are pinned by test vectors (tests/test_util_hash.cpp).
//
// Two hashes, because two kinds of input:
//  * fnv1a64 — byte-serial FNV-1a-64. It keys short strings: simulation
//    fingerprints (core/scenario.cpp) and suite manifest hashes
//    (core/scenario_suite.cpp), persisted in journals and summaries.
//  * wordlane64 — a word-parallel checksum for megabyte payloads: the
//    simulation-store content checksum (core/sim_store.cpp). FNV-1a's one
//    multiply per byte, each waiting on the last, runs far below memory
//    bandwidth there; four independent lanes over 64-bit words do not.
// splitmix64 is the shared 64-bit finaliser (also CounterRng's mixer).
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

#include "util/binio.hpp"

namespace dnnlife::util {

/// SplitMix64 step: the canonical 64-bit finaliser used for seeding, for
/// hash finishing and as the mixing function of CounterRng. A bijection
/// on 64-bit words.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

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

/// Word-parallel 64-bit checksum. The input is cut into 32-byte blocks of
/// four little-endian u64 words; word i of every block feeds lane i with
/// `h = rotl((h ^ w) * p, 29)`. The lanes are then folded into the length
/// with splitmix64 and the < 32-byte tail goes through FNV-1a:
///
///   acc = splitmix64(len); for each lane: acc = splitmix64(acc ^ lane)
///   return splitmix64(fnv1a64(tail, acc))
///
/// Every step is a bijection in its running state and in the word (or
/// byte) it absorbs (xor, multiplication by an odd constant, rotation,
/// splitmix64), so changing any single word — hence any single byte —
/// always changes the result. The rotation moves each product's top bit
/// down, so two top-bit flips in one lane's successive words cannot
/// cancel.
inline std::uint64_t wordlane64(std::string_view bytes) noexcept {
  constexpr std::uint64_t kLanePrime = 0x9fb21c651e98df25ULL;  // odd
  constexpr std::size_t kBlockBytes = 32;
  std::uint64_t lanes[4] = {splitmix64(kFnv1a64OffsetBasis),
                            splitmix64(kFnv1a64OffsetBasis + 1),
                            splitmix64(kFnv1a64OffsetBasis + 2),
                            splitmix64(kFnv1a64OffsetBasis + 3)};
  const char* data = bytes.data();
  const std::size_t blocks = bytes.size() / kBlockBytes;
  for (std::size_t block = 0; block < blocks; ++block, data += kBlockBytes)
    for (int lane = 0; lane < 4; ++lane)
      lanes[lane] = std::rotl(
          (lanes[lane] ^ load_u64le(data + 8 * lane)) * kLanePrime, 29);
  std::uint64_t acc = splitmix64(bytes.size());
  for (const std::uint64_t lane : lanes) acc = splitmix64(acc ^ lane);
  return splitmix64(fnv1a64(bytes.substr(blocks * kBlockBytes), acc));
}

}  // namespace dnnlife::util
