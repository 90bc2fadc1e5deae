// Worker-pool RPC protocol (docs/ISOLATION.md).
//
// In isolated runs every analysis attempt runs in a forked
// support::PoolWorker; the only thing that crosses between the supervisor
// and the child is a byte stream on two pipes. A crashing child can die
// mid-write, so the stream must be self-validating: both directions ship
// one payload inside the same CRC frame layer the write-ahead journal
// uses, stamped with the RPC magic —
//
//   message  := magic frame
//   magic    := "DYSBRPC3"                     (8 bytes)
//   frame    := len:u32 crc:u32 payload[len]   (crc = CRC-32 of payload)
//   request  := dispatch+
//   dispatch := app_index:u64 attempt:u32 seed:u64 worker:u32 crash:u8
//               retire:u8
//   response := (len:u32 outcome-record[len])+   (one per dispatch, in order)
//
// — and is re-read with the journal's parse_journal. Every round trip
// carries a batch of one or more dispatches: the child runs them back to
// back and ships every outcome in one response, and one codec per
// direction serves every size. Requests carry the dispatch tuple the
// forked loop needs to run each attempt; responses carry the standard
// outcome_codec records. decode_pool_responses is the decoder of all
// untrusted child output: a torn or bit-flipped response (child killed
// mid-write, injected sandbox.pool.rpc fault, fuzzed frames) is detected
// exactly as a torn journal tail is, and degrades to re-sending or
// quarantining the apps — the run is never corrupted by whatever a dying
// child managed to emit.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "driver/outcome_codec.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace dydroid::driver {

/// RPC-stream magic: "DYSBRPC3" (bump the digit on protocol changes).
inline constexpr std::array<std::uint8_t, 8> kPoolRpcMagic = {
    'D', 'Y', 'S', 'B', 'R', 'P', 'C', '3'};

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

/// Encode a batch of dispatches (at least one) as one framed request
/// message.
[[nodiscard]] support::Bytes encode_pool_request(
    std::span<const PoolRequest> batch);

/// Decode a framed request message into its dispatches. Fails (never
/// throws) on a bad magic, torn frame, empty batch or a payload that is not
/// a whole number of dispatches — the serve loop exits loudly on any
/// failure (a desynchronized stream cannot be resynchronized).
[[nodiscard]] support::Result<std::vector<PoolRequest>> decode_pool_requests(
    std::span<const std::uint8_t> data);

/// Builds one framed response message, one finished attempt at a time, in
/// dispatch order. Reusable: finish() hands the message over and leaves
/// the encoder empty, with its buffers' capacity kept.
class PoolResponseEncoder {
 public:
  void add(std::size_t app_index, const AppOutcome& outcome);
  [[nodiscard]] support::Bytes finish();

 private:
  support::ByteWriter payload_;
  support::ByteWriter record_;
};

/// Decode a framed response message into its outcomes, in dispatch order.
/// Fails (never throws) on a missing or wrong magic, a torn or bit-flipped
/// frame, trailing garbage, anything but exactly one frame, an empty batch
/// or an undecodable record — the caller re-runs or quarantines the apps
/// on any failure.
[[nodiscard]] support::Result<std::vector<DecodedOutcome>>
decode_pool_responses(std::span<const std::uint8_t> data);

}  // namespace dydroid::driver
