// Pinned hash test vectors: fingerprints and manifest hashes (FNV-1a-64)
// and store checksums (wordlane64) are persisted, so neither may drift.
#include <gtest/gtest.h>

#include <string>

#include "util/hash.hpp"

namespace dnnlife::util {
namespace {

TEST(Fnv1a64, MatchesPublishedTestVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
  static_assert(fnv1a64("") == kFnv1a64OffsetBasis);
}

TEST(Fnv1a64, BasisSeedsAnIndependentStream) {
  constexpr std::uint64_t kOtherBasis = 0x6c62272e07bb0142ULL;
  EXPECT_EQ(fnv1a64("", kOtherBasis), kOtherBasis);
  EXPECT_NE(fnv1a64("foobar", kOtherBasis), fnv1a64("foobar"));
}

TEST(Fnv1a64, HashesBytesNotCharacters) {
  // Bytes >= 0x80 enter unsigned, whatever the signedness of char.
  const std::string_view high("\xff", 1);
  EXPECT_EQ(fnv1a64(high),
            (kFnv1a64OffsetBasis ^ 0xffULL) * 0x100000001b3ULL);
}

/// 100 bytes `i * 37 + 11`: prefixes reach an empty input, a lone tail
/// byte, a tail one short of a lane block, exactly one block, one block
/// plus a tail byte, and three blocks plus a tail.
std::string lane_input(std::size_t size) {
  std::string bytes(size, '\0');
  for (std::size_t i = 0; i < size; ++i)
    bytes[i] = static_cast<char>(i * 37 + 11);
  return bytes;
}

TEST(Wordlane64, MatchesPinnedVectors) {
  EXPECT_EQ(wordlane64(lane_input(0)), 0x27977067193306b5ULL);
  EXPECT_EQ(wordlane64(lane_input(1)), 0x162ea611fa937644ULL);
  EXPECT_EQ(wordlane64(lane_input(31)), 0xd340d45ad37d3435ULL);
  EXPECT_EQ(wordlane64(lane_input(32)), 0x939b8c8fa25595adULL);
  EXPECT_EQ(wordlane64(lane_input(33)), 0xe05a66d36fbee4beULL);
  EXPECT_EQ(wordlane64(lane_input(100)), 0x3f10ddaca8a3dc2aULL);
}

TEST(Wordlane64, EverySingleBitFlipChangesTheHash) {
  const std::string bytes = lane_input(100);
  const std::uint64_t clean = wordlane64(bytes);
  for (std::size_t at = 0; at < bytes.size(); ++at)
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
      EXPECT_NE(wordlane64(flipped), clean)
          << "bit " << bit << " of byte " << at;
    }
}

TEST(Wordlane64, TopBitFlipsInOneLaneDoNotCancel) {
  // Bytes 7 and 39 are the top bytes of lane 0's first two words.
  std::string bytes = lane_input(100);
  const std::uint64_t clean = wordlane64(bytes);
  bytes[7] = static_cast<char>(bytes[7] ^ 0x80);
  bytes[39] = static_cast<char>(bytes[39] ^ 0x80);
  EXPECT_NE(wordlane64(bytes), clean);
}

}  // namespace
}  // namespace dnnlife::util
