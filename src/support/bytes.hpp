// Bounds-checked binary readers/writers used by every container format
// (SimDex, SimNative, SimApk). Integers are little-endian; variable-length
// fields are length-prefixed.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace dydroid::support {

using Bytes = std::vector<std::uint8_t>;

/// The bytes as characters, without a copy (valid while the bytes live):
/// magic checks and in-place text parsing.
inline std::string_view as_chars(std::span<const std::uint8_t> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// Append-only serializer.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// Length-prefixed (u32) string.
  void str(std::string_view s);
  /// Length-prefixed (u32) raw blob.
  void blob(std::span<const std::uint8_t> data);
  /// Raw bytes, no length prefix.
  void raw(std::span<const std::uint8_t> data);
  /// Pre-size the backing buffer (hot encode paths).
  void reserve(std::size_t n) { buf_.reserve(n); }
  /// Drop the contents but keep the capacity, so a long-lived writer
  /// encodes record after record without re-allocating.
  void clear() { buf_.clear(); }

  [[nodiscard]] const Bytes& data() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Bounds-checked deserializer; throws ParseError on truncation.
///
/// Every read checks the bytes left once and indexes the span directly, so
/// the hot decoders (SimDex, SimApk, the report and outcome codecs) inline
/// their field reads. What a truncated read throws is part of the contract
/// (docs/FORMATS.md): a short fixed-width read consumes what is left and
/// reports `need 1 bytes at offset S of S` (S = input size), as if it read
/// byte by byte; a length-prefixed or explicit `n`-byte read that does not
/// fit reports `need n bytes at offset p of S` and leaves the position at
/// p, where the field's bytes start.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return fixed<std::uint8_t>(); }
  std::uint16_t u16() { return fixed<std::uint16_t>(); }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str() { return std::string(as_chars(view(u32()))); }
  Bytes blob() { return raw(u32()); }
  /// Read exactly n raw bytes.
  Bytes raw(std::size_t n) {
    const auto s = view(n);
    return Bytes(s.begin(), s.end());
  }
  /// Consume exactly n bytes and return a zero-copy view into the reader's
  /// underlying buffer (valid only while that buffer lives).
  std::span<const std::uint8_t> view(std::size_t n) {
    if (n > remaining()) [[unlikely]] throw_truncated(n);
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  /// One little-endian unsigned field, loaded straight from the span.
  template <typename T>
  T fixed() {
    if (remaining() < sizeof(T)) [[unlikely]] throw_short_fixed();
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += sizeof(T);
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, p, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v = static_cast<T>(v | static_cast<T>(T{p[i]} << (8 * i)));
      }
    }
    return v;
  }
  /// Cold paths: throw the truncation ParseError described above.
  [[noreturn]] void throw_truncated(std::size_t n) const;
  [[noreturn]] void throw_short_fixed();

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Convert a string to a byte vector (no terminator).
Bytes to_bytes(std::string_view s);
/// Convert bytes to a string.
std::string to_string(std::span<const std::uint8_t> b);

}  // namespace dydroid::support
