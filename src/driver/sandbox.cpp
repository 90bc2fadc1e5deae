#include "driver/sandbox.hpp"

#include "support/journal.hpp"
#include "support/strings.hpp"

namespace dydroid::driver {

namespace {

/// Stamp one payload as a complete `magic frame` message.
support::Bytes framed(const support::Bytes& payload) {
  support::ByteWriter stream;
  stream.reserve(payload.size() + kPoolRpcMagic.size() +
                 support::kJournalFrameOverhead);
  stream.raw(kPoolRpcMagic);
  support::encode_frame(stream, payload);
  return stream.take();
}

/// Parse one `magic frame` message and hand back the single intact record,
/// a slice of one copy of the message.
support::Result<support::Blob> single_record(
    std::span<const std::uint8_t> data, const char* what) {
  if (data.empty()) {
    return support::Result<support::Blob>::failure(
        std::string("pool: empty ") + what + " message");
  }
  auto parsed = support::parse_journal(
      support::Blob::take(support::Bytes(data.begin(), data.end())),
      kPoolRpcMagic);
  if (!parsed.ok()) {
    return support::Result<support::Blob>::failure("pool: " + parsed.error());
  }
  auto& read = parsed.value();
  if (read.records.size() != 1 || read.torn()) {
    return support::Result<support::Blob>::failure(support::format(
        "pool: expected one intact %s frame, got %zu record(s) with "
        "%zu damaged trailing byte(s)",
        what, read.records.size(), read.bytes_discarded));
  }
  return std::move(read.records.front());
}

}  // namespace

support::Bytes encode_pool_request(const PoolRequest& request) {
  support::ByteWriter payload;
  payload.u64(request.app_index);
  payload.u32(request.attempt);
  payload.u64(request.seed);
  payload.u32(request.worker);
  payload.u8(request.crash_child ? 1 : 0);
  payload.u8(request.retire ? 1 : 0);
  return framed(payload.data());
}

support::Result<PoolRequest> decode_pool_request(
    std::span<const std::uint8_t> data) {
  auto record = single_record(data, "request");
  if (!record.ok()) {
    return support::Result<PoolRequest>::failure(record.error());
  }
  try {
    support::ByteReader reader(record.value());
    PoolRequest request;
    request.app_index = reader.u64();
    request.attempt = reader.u32();
    request.seed = reader.u64();
    request.worker = reader.u32();
    request.crash_child = reader.u8() != 0;
    request.retire = reader.u8() != 0;
    if (!reader.at_end()) {
      return support::Result<PoolRequest>::failure(
          "pool: trailing bytes after request payload");
    }
    return request;
  } catch (const std::exception& e) {
    return support::Result<PoolRequest>::failure(
        std::string("pool: corrupt request payload: ") + e.what());
  }
}

support::Bytes encode_pool_response(std::size_t app_index,
                                    const AppOutcome& outcome) {
  support::ByteWriter payload;
  payload.reserve(512);
  encode_outcome_into(app_index, outcome, payload);
  return framed(payload.data());
}

support::Result<DecodedOutcome> decode_pool_response(
    std::span<const std::uint8_t> data) {
  auto record = single_record(data, "response");
  if (!record.ok()) {
    return support::Result<DecodedOutcome>::failure(record.error());
  }
  try {
    return decode_outcome(record.value());
  } catch (const std::exception& e) {
    return support::Result<DecodedOutcome>::failure(
        std::string("pool: corrupt response payload: ") + e.what());
  }
}

}  // namespace dydroid::driver
