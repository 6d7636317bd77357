// The explicit little-endian codec (util/binio.hpp): the bulk u32 array
// calls write and read exactly the bytes of their per-element twins, and
// a short buffer throws before anything is written, leaving the cursor
// where it was.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/binio.hpp"

namespace dnnlife::util {
namespace {

const std::vector<std::uint32_t> kValues = {
    0x04030201u, 0u, 0xffffffffu, 0x80000000u, 0x7fu, 0xdeadbeefu, 12345u};

TEST(BinioArrays, AppendU32leArrayPinsTheLittleEndianLayout) {
  std::string bulk = "hdr";
  append_u32le_array(bulk, kValues);
  std::string serial = "hdr";
  for (const std::uint32_t value : kValues) append_u32le(serial, value);
  EXPECT_EQ(bulk, serial);
  EXPECT_EQ(bulk.substr(3, 4), std::string("\x01\x02\x03\x04", 4));
  std::string empty;
  append_u32le_array(empty, {});
  EXPECT_EQ(empty, "");
}

TEST(BinioArrays, U32ArrayMatchesPerElementReads) {
  std::string bytes;
  append_u64le(bytes, 42);
  append_u32le_array(bytes, kValues);
  ByteReader reader(bytes);
  EXPECT_EQ(reader.u64("header"), 42u);
  std::vector<std::uint32_t> read(kValues.size());
  reader.u32_array(read, "values");
  EXPECT_EQ(read, kValues);
  EXPECT_TRUE(reader.exhausted());
}

TEST(BinioArrays, U32ArrayOnEveryShortPrefixThrowsAndKeepsTheCursor) {
  std::string bytes;
  append_u32le(bytes, 7);
  append_u32le_array(bytes, kValues);
  for (std::size_t cut = 4; cut < bytes.size(); ++cut) {
    ByteReader reader(std::string_view(bytes).substr(0, cut));
    ASSERT_EQ(reader.u32("header"), 7u);
    const std::size_t before = reader.remaining();
    std::vector<std::uint32_t> out(kValues.size(), 0x5a5a5a5au);
    EXPECT_THROW(reader.u32_array(out, "values"), std::invalid_argument)
        << "prefix of " << cut << " bytes";
    EXPECT_EQ(reader.remaining(), before) << "the cursor moved on a throw";
    EXPECT_EQ(out, std::vector<std::uint32_t>(kValues.size(), 0x5a5a5a5au))
        << "elements were written before the bounds check";
  }
}

}  // namespace
}  // namespace dnnlife::util
