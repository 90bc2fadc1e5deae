// Blob: a cheap-to-copy, refcounted, immutable byte buffer view — the
// ownership primitive behind the parse-once pipeline (docs/FORMATS.md,
// "Buffer ownership & zero-copy views").
//
// A Blob is (shared owner, data pointer, length); the owner is a Bytes or
// a raw array. Copying one is a refcount bump; slice() produces an
// aliasing sub-view that keeps the parent buffer alive past the parent
// Blob's destruction; converting to std::span is free. The underlying
// bytes are immutable for the Blob's whole lifetime, which is what makes a
// Blob held by a reader a true snapshot: writers replace whole buffers
// (copy-on-write), they never mutate in place.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>

#include "support/bytes.hpp"

namespace dydroid::support {

class Blob {
 public:
  /// Empty view (no owner).
  Blob() = default;

  /// Copy `data` into a fresh refcounted buffer. The only Blob constructor
  /// that duplicates bytes; feeds the `pipeline.bytes_copied` counter.
  static Blob copy_of(std::span<const std::uint8_t> data);
  /// Adopt an already-materialized buffer without copying.
  static Blob take(Bytes&& data);
  /// Adopt the first `size` bytes of a raw array without copying — for a
  /// buffer allocated for overwrite (std::make_shared_for_overwrite) and
  /// filled by read(2), which no zero-fill has to touch first.
  static Blob take(std::shared_ptr<const std::uint8_t[]> data,
                   std::size_t size);
  /// Copy a string's characters into a fresh buffer.
  static Blob of_string(std::string_view s);

  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return std::span<const std::uint8_t>(data_, size_);
  }
  // NOLINTNEXTLINE(google-explicit-constructor): free view conversion is the
  // point — every span-taking parser/hash/writer accepts a Blob unchanged.
  operator std::span<const std::uint8_t>() const { return span(); }

  [[nodiscard]] const std::uint8_t* data() const { return span().data(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return span()[i]; }
  [[nodiscard]] const std::uint8_t* begin() const { return data(); }
  [[nodiscard]] const std::uint8_t* end() const { return data() + size_; }

  /// Aliasing sub-view sharing this Blob's owner: no bytes move, and the
  /// slice keeps the whole backing buffer alive even after every other
  /// reference (including the parent Blob) is gone. Throws ParseError when
  /// the range does not fit.
  [[nodiscard]] Blob slice(std::size_t offset, std::size_t length) const;

  /// The bytes as an owned vector (one copy) — for call sites that must
  /// hand ownership to a mutating consumer.
  [[nodiscard]] Bytes to_bytes() const {
    const auto s = span();
    return Bytes(s.begin(), s.end());
  }

  /// Content equality (not identity): same length and bytes.
  friend bool operator==(const Blob& a, const Blob& b) {
    const auto sa = a.span();
    const auto sb = b.span();
    return sa.size() == sb.size() &&
           std::equal(sa.begin(), sa.end(), sb.begin());
  }
  /// Content equality against any contiguous byte range (Bytes, span…).
  friend bool operator==(const Blob& a, std::span<const std::uint8_t> b) {
    const auto sa = a.span();
    return sa.size() == b.size() && std::equal(sa.begin(), sa.end(), b.begin());
  }

  /// True when both views alias the same backing buffer (used by the
  /// zero-copy tests to prove no hidden copy happened).
  [[nodiscard]] bool shares_buffer_with(const Blob& other) const {
    return owner_ != nullptr && owner_ == other.owner_;
  }

 private:
  Blob(std::shared_ptr<const void> owner, const std::uint8_t* data,
       std::size_t size)
      : owner_(std::move(owner)), data_(data), size_(size) {}

  /// Keeps the backing buffer (a Bytes or a raw array) alive.
  std::shared_ptr<const void> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace dydroid::support
