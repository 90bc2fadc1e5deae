#include "driver/sandbox.hpp"

#include <utility>

#include "support/journal.hpp"
#include "support/strings.hpp"

namespace dydroid::driver {

namespace {

/// Wire size of one dispatch.
constexpr std::size_t kDispatchBytes = 8 + 4 + 8 + 4 + 1 + 1;

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

support::Bytes encode_pool_request(std::span<const PoolRequest> batch) {
  support::ByteWriter payload;
  payload.reserve(batch.size() * kDispatchBytes);
  for (const PoolRequest& request : batch) {
    payload.u64(request.app_index);
    payload.u32(request.attempt);
    payload.u64(request.seed);
    payload.u32(request.worker);
    payload.u8(request.crash_child ? 1 : 0);
    payload.u8(request.retire ? 1 : 0);
  }
  return framed(payload.data());
}

support::Result<std::vector<PoolRequest>> decode_pool_requests(
    std::span<const std::uint8_t> data) {
  using Decoded = support::Result<std::vector<PoolRequest>>;
  auto record = single_record(data, "request");
  if (!record.ok()) return Decoded::failure(record.error());
  const support::Blob& payload = record.value();
  if (payload.empty() || payload.size() % kDispatchBytes != 0) {
    return Decoded::failure(support::format(
        "pool: request payload of %zu byte(s) is not a batch of %zu-byte "
        "dispatches",
        payload.size(), kDispatchBytes));
  }
  std::vector<PoolRequest> batch(payload.size() / kDispatchBytes);
  support::ByteReader reader(payload);
  for (PoolRequest& request : batch) {
    request.app_index = reader.u64();
    request.attempt = reader.u32();
    request.seed = reader.u64();
    request.worker = reader.u32();
    request.crash_child = reader.u8() != 0;
    request.retire = reader.u8() != 0;
  }
  return batch;
}

void PoolResponseEncoder::add(std::size_t app_index,
                              const AppOutcome& outcome) {
  record_.clear();
  encode_outcome_into(app_index, outcome, record_);
  payload_.blob(record_.data());
}

support::Bytes PoolResponseEncoder::finish() {
  support::Bytes message = framed(payload_.data());
  payload_.clear();
  return message;
}

support::Result<std::vector<DecodedOutcome>> decode_pool_responses(
    std::span<const std::uint8_t> data) {
  using Decoded = support::Result<std::vector<DecodedOutcome>>;
  auto record = single_record(data, "response");
  if (!record.ok()) return Decoded::failure(record.error());
  if (record.value().empty()) {
    return Decoded::failure("pool: response carries no outcome");
  }
  try {
    std::vector<DecodedOutcome> outcomes;
    support::ByteReader reader(record.value());
    while (!reader.at_end()) {
      const std::uint32_t size = reader.u32();
      outcomes.push_back(decode_outcome(reader.view(size)));
    }
    return outcomes;
  } catch (const std::exception& e) {
    return Decoded::failure(std::string("pool: corrupt response payload: ") +
                            e.what());
  }
}

}  // namespace dydroid::driver
