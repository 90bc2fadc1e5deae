#include "driver/outcome_codec.hpp"

#include <bit>

#include "core/report_codec.hpp"
#include "support/error.hpp"
#include "support/journal.hpp"

namespace dydroid::driver {

using support::ByteReader;
using support::ByteWriter;
using support::ParseError;

void encode_outcome_into(std::size_t app_index, const AppOutcome& outcome,
                         support::ByteWriter& w) {
  w.u8(kOutcomeCodecVersion);
  w.u64(static_cast<std::uint64_t>(app_index));
  w.u64(outcome.seed);
  w.raw(outcome.job.bytes);
  w.u64(std::bit_cast<std::uint64_t>(outcome.wall_ms));
  w.u32(outcome.attempts);
  std::uint8_t flags = 0;
  if (outcome.timed_out) flags |= 1u;
  if (outcome.quarantined) flags |= 2u;
  w.u8(flags);
  w.u8(static_cast<std::uint8_t>(outcome.sandbox_fate));
  w.u8(outcome.fatal_signal);
  core::serialize_report(w, outcome.report);
}

support::Bytes encode_outcome(std::size_t app_index,
                              const AppOutcome& outcome) {
  ByteWriter w;
  w.reserve(512);  // typical encoded outcome is a few hundred bytes
  encode_outcome_into(app_index, outcome, w);
  return w.take();
}

std::size_t decode_outcome_header(ByteReader& r, AppOutcome& outcome) {
  const std::uint8_t version = r.u8();
  if (version != kOutcomeCodecVersion) {
    // The shard-metadata tag (support::kShardMetaTag) is deliberately
    // disjoint from every codec version byte; name the record kind in the
    // error so "decoded a meta record as an outcome" reads as the caller
    // bug it is, not as journal corruption.
    if (version == support::kShardMetaTag) {
      throw ParseError(
          "outcome codec: record is shard metadata, not an outcome");
    }
    throw ParseError("outcome codec: unsupported version " +
                     std::to_string(version));
  }
  const auto index = static_cast<std::size_t>(r.u64());
  outcome.seed = r.u64();
  for (std::uint8_t& byte : outcome.job.bytes) byte = r.u8();
  outcome.wall_ms = std::bit_cast<double>(r.u64());
  outcome.attempts = r.u32();
  const std::uint8_t flags = r.u8();
  if (flags > 3) throw ParseError("outcome codec: bad flags");
  outcome.timed_out = (flags & 1u) != 0;
  outcome.quarantined = (flags & 2u) != 0;
  const std::uint8_t fate = r.u8();
  if (fate > static_cast<std::uint8_t>(SandboxFate::kTimedOut)) {
    throw ParseError("outcome codec: bad sandbox fate");
  }
  outcome.sandbox_fate = static_cast<SandboxFate>(fate);
  outcome.fatal_signal = r.u8();
  return index;
}

DecodedOutcome decode_outcome(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  DecodedOutcome decoded;
  decoded.index = decode_outcome_header(r, decoded.outcome);
  decoded.outcome.report = core::deserialize_report(r);
  if (!r.at_end()) {
    throw ParseError("outcome codec: trailing bytes after report");
  }
  decoded.outcome.completed = true;
  decoded.outcome.replayed = true;
  return decoded;
}

}  // namespace dydroid::driver
