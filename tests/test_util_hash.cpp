// Pinned FNV-1a-64 test vectors: fingerprints, manifest hashes and store
// checksums are persisted, so util::fnv1a64 must never drift.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace dnnlife::util
