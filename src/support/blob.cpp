#include "support/blob.hpp"

#include "support/error.hpp"
#include "support/trace.hpp"

namespace dydroid::support {

Blob Blob::copy_of(std::span<const std::uint8_t> data) {
  count("pipeline.bytes_copied", data.size());
  return take(Bytes(data.begin(), data.end()));
}

Blob Blob::take(Bytes&& data) {
  auto owner = std::make_shared<const Bytes>(std::move(data));
  const std::uint8_t* bytes = owner->data();
  const std::size_t size = owner->size();
  return Blob(std::move(owner), bytes, size);
}

Blob Blob::take(std::shared_ptr<const std::uint8_t[]> data, std::size_t size) {
  const std::uint8_t* bytes = data.get();
  return Blob(std::move(data), bytes, size);
}

Blob Blob::of_string(std::string_view s) {
  return take(::dydroid::support::to_bytes(s));
}

Blob Blob::slice(std::size_t offset, std::size_t length) const {
  if (offset > size_ || length > size_ - offset) {
    throw ParseError("blob: slice out of range");
  }
  return Blob(owner_, data_ + offset, length);
}

}  // namespace dydroid::support
