#include "support/bytes.hpp"

namespace dydroid::support {

// The integer writers emit little-endian explicitly (host-endianness
// independent) but append the whole value in one insert, not one
// push_back per byte — multi-byte writes dominate the hot encode paths
// (container serialization, the outcome journal).

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v),
                             static_cast<std::uint8_t>(v >> 8)};
  buf_.insert(buf_.end(), b, b + sizeof(b));
}

void ByteWriter::u32(std::uint32_t v) {
  const std::uint8_t b[4] = {
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  buf_.insert(buf_.end(), b, b + sizeof(b));
}

void ByteWriter::u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  buf_.insert(buf_.end(), b, b + sizeof(b));
}

void ByteWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::blob(std::span<const std::uint8_t> data) {
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void ByteWriter::raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteReader::throw_truncated(std::size_t n) const {
  throw ParseError("truncated input: need " + std::to_string(n) +
                   " bytes at offset " + std::to_string(pos_) + " of " +
                   std::to_string(data_.size()));
}

void ByteReader::throw_short_fixed() {
  // Fail as a byte-by-byte read would: what is left is consumed, and the
  // byte after it is the one missing.
  pos_ = data_.size();
  throw_truncated(1);
}

Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string to_string(std::span<const std::uint8_t> b) {
  return std::string(as_chars(b));
}

}  // namespace dydroid::support
