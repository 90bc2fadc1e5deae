// Worker-pool RPC protocol (docs/ISOLATION.md).
//
// In isolated runs every analysis attempt runs in a forked
// support::PoolWorker; the only thing that crosses between the supervisor
// and the child is a byte stream on two pipes. A crashing child can die
// mid-write, so the stream must be self-validating: both directions ship
// one payload inside the same CRC frame layer the write-ahead journal
// uses, stamped with the RPC magic —
//
//   message := magic frame
//   magic   := "DYSBRPC2"                      (8 bytes)
//   frame   := len:u32 crc:u32 payload[len]    (crc = CRC-32 of payload)
//
// — and is re-read with the journal's parse_journal. Requests carry the
// dispatch tuple the forked loop needs to run one attempt; responses carry
// the standard outcome_codec payload. decode_pool_response is the decoder
// of all untrusted child output: a torn or bit-flipped response (child
// killed mid-write, injected sandbox.pool.rpc fault, fuzzed frames) is
// detected exactly as a torn journal tail is, and degrades to a
// quarantined crash outcome — the run is never corrupted by whatever a
// dying child managed to emit.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "driver/outcome_codec.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace dydroid::driver {

/// RPC-stream magic: "DYSBRPC2" (bump the digit on protocol changes).
inline constexpr std::array<std::uint8_t, 8> kPoolRpcMagic = {
    'D', 'Y', 'S', 'B', 'R', 'P', 'C', '2'};

/// One dispatched attempt: everything the pooled child needs to run the
/// app exactly as thread mode would.
struct PoolRequest {
  std::uint64_t app_index = 0;  // global corpus index into jobs
  std::uint32_t attempt = 0;    // retry ordinal (salts fault sessions)
  std::uint64_t seed = 0;       // the app's corpus seed (child validates)
  std::uint32_t worker = 0;     // supervisor thread ordinal (trace context)
  bool crash_child = false;     // injected sandbox.crash: abort on receipt
  bool retire = false;          // recycled: exit after shipping the response
};

/// Encode one dispatch as a complete framed request message.
[[nodiscard]] support::Bytes encode_pool_request(const PoolRequest& request);

/// Decode a framed request message. Fails (never throws) on a bad magic,
/// torn frame or malformed payload — the serve loop exits loudly on any
/// failure (a desynchronized stream cannot be resynchronized).
[[nodiscard]] support::Result<PoolRequest> decode_pool_request(
    std::span<const std::uint8_t> data);

/// Encode one finished attempt as a framed response message.
[[nodiscard]] support::Bytes encode_pool_response(std::size_t app_index,
                                                  const AppOutcome& outcome);

/// Decode a framed response message. Fails (never throws) on a missing or
/// wrong magic, a torn or bit-flipped frame, trailing garbage, anything
/// but exactly one record, or an undecodable payload — the caller
/// quarantines the app on any failure.
[[nodiscard]] support::Result<DecodedOutcome> decode_pool_response(
    std::span<const std::uint8_t> data);

}  // namespace dydroid::driver
