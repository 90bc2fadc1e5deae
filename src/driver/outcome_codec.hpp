// Journal payload codec for driver::AppOutcome (docs/CHECKPOINT.md).
//
// One journal record = one finished app: the corpus index and job it
// belongs to, the driver-level bookkeeping the AggregateStats reduction
// consumes (seed, wall time, attempts, timeout/quarantine flags) and the
// full canonical AppReport (core/report_codec.hpp). Replaying a record must
// be indistinguishable from having run the app: the JSON report and every
// absorbed stat agree byte-for-byte with the live outcome.
#pragma once

#include <cstddef>
#include <span>

#include "driver/corpus_runner.hpp"
#include "support/bytes.hpp"

namespace dydroid::driver {

/// Journal payload format version (first byte of every record payload):
/// v3 added the job after the seed, v2 the sandbox fate after the flags
/// (docs/ISOLATION.md). Older records are rejected, and the version feeds
/// the config fingerprint. Versions count up from 1 and must never reach
/// support::kShardMetaTag (0xF5): a journal's metadata record
/// (docs/SHARDING.md) is told apart from outcomes by its first byte alone.
inline constexpr std::uint8_t kOutcomeCodecVersion = 3;

/// Encode one finished outcome as a journal record payload.
[[nodiscard]] support::Bytes encode_outcome(std::size_t app_index,
                                            const AppOutcome& outcome);

/// Same encoding, appended into a caller-provided writer (call clear()
/// first to start a fresh record). Lets the journal hot path reuse one
/// buffer across thousands of appends instead of allocating per record.
void encode_outcome_into(std::size_t app_index, const AppOutcome& outcome,
                         support::ByteWriter& w);

/// Read a record's fixed fields (all but the report) into `outcome` and
/// return its index, leaving `r` at the report. Throws support::ParseError
/// on a version mismatch, truncation or bad enums.
std::size_t decode_outcome_header(support::ByteReader& r, AppOutcome& outcome);

struct DecodedOutcome {
  std::size_t index = 0;
  AppOutcome outcome;
};

/// Decode a record payload. Throws support::ParseError on a version
/// mismatch, truncation, out-of-range enum values or trailing bytes.
[[nodiscard]] DecodedOutcome decode_outcome(
    std::span<const std::uint8_t> payload);

}  // namespace dydroid::driver
