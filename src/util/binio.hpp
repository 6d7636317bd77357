// Tiny explicit little-endian binary codec.
//
// The disk simulation store (core/sim_store.hpp) serializes tracker words
// into files that may be read back by a different build on a different
// machine, so the byte layout must be pinned — never memcpy of structs or
// host-endian integers. Writers append to a std::string; readers consume
// through a bounds-checked cursor that throws std::invalid_argument on
// underflow instead of reading past the buffer.
//
// The bulk u32 array calls (append_u32le_array, ByteReader::u32_array)
// keep that layout: one explicit little-endian load or store per element
// (memcpy plus a byte swap that exists only on big-endian hosts), which a
// little-endian build compiles to a straight copy. One bounds check
// covers the whole array, and a short buffer throws before anything is
// written.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dnnlife::util {

namespace detail {

/// `value` with its bytes reversed when the host is big-endian, so the
/// memcpy loads and stores below always see little-endian bytes.
template <typename Word>
constexpr Word to_from_le(Word value) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    Word swapped = 0;
    for (std::size_t i = 0; i < sizeof(Word); ++i)
      swapped = static_cast<Word>((swapped << 8) |
                                  ((value >> (8 * i)) & 0xffu));
    return swapped;
  } else {
    return value;
  }
}

}  // namespace detail

/// The little-endian u32 / u64 at `bytes` (any alignment).
inline std::uint32_t load_u32le(const char* bytes) noexcept {
  std::uint32_t value;
  std::memcpy(&value, bytes, sizeof value);
  return detail::to_from_le(value);
}

inline std::uint64_t load_u64le(const char* bytes) noexcept {
  std::uint64_t value;
  std::memcpy(&value, bytes, sizeof value);
  return detail::to_from_le(value);
}

inline void append_u32le(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((value >> shift) & 0xffu));
}

inline void append_u64le(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((value >> shift) & 0xffu));
}

/// Every element of `values` as a little-endian u32, in order — the same
/// bytes as append_u32le per element.
inline void append_u32le_array(std::string& out,
                               std::span<const std::uint32_t> values) {
  const std::size_t offset = out.size();
  out.resize(offset + 4 * values.size());
  char* dst = out.data() + offset;
  for (const std::uint32_t value : values) {
    const std::uint32_t le = detail::to_from_le(value);
    std::memcpy(dst, &le, sizeof le);
    dst += sizeof le;
  }
}

/// Length-prefixed (u64) byte string.
inline void append_sized_bytes(std::string& out, std::string_view bytes) {
  append_u64le(out, bytes.size());
  out.append(bytes.data(), bytes.size());
}

/// Bounds-checked forward cursor over a byte range. All reads throw
/// std::invalid_argument (message says what was being read) rather than
/// walking off the end — corrupt input must surface as a parse error.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::size_t remaining() const noexcept { return data_.size() - offset_; }
  bool exhausted() const noexcept { return offset_ == data_.size(); }

  std::uint32_t u32(const char* what) {
    require(4, what);
    const std::uint32_t value = load_u32le(data_.data() + offset_);
    offset_ += 4;
    return value;
  }

  std::uint64_t u64(const char* what) {
    require(8, what);
    const std::uint64_t value = load_u64le(data_.data() + offset_);
    offset_ += 8;
    return value;
  }

  /// Fill `out` with the next out.size() little-endian u32s. When fewer
  /// bytes remain it throws before writing any element, leaving the
  /// cursor where it was.
  void u32_array(std::span<std::uint32_t> out, const char* what) {
    if (out.size() > remaining() / 4)
      throw std::invalid_argument(std::string("truncated input reading ") +
                                  what);
    const char* src = data_.data() + offset_;
    for (std::uint32_t& value : out) {
      value = load_u32le(src);
      src += 4;
    }
    offset_ += 4 * out.size();
  }

  std::string_view bytes(std::size_t count, const char* what) {
    require(count, what);
    const std::string_view view = data_.substr(offset_, count);
    offset_ += count;
    return view;
  }

  std::string_view sized_bytes(const char* what) {
    const std::uint64_t size = u64(what);
    if (size > remaining())
      throw std::invalid_argument(std::string("truncated input reading ") +
                                  what);
    return bytes(static_cast<std::size_t>(size), what);
  }

 private:
  void require(std::size_t count, const char* what) const {
    if (remaining() < count)
      throw std::invalid_argument(std::string("truncated input reading ") +
                                  what);
  }

  std::string_view data_;
  std::size_t offset_ = 0;
};

}  // namespace dnnlife::util
