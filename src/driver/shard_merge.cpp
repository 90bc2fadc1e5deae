#include "driver/shard_merge.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "driver/outcome_codec.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace dydroid::driver {

namespace {

using MergeResult = support::Result<ShardMergeSummary>;

std::string hex_prefix(const std::array<std::uint8_t, 32>& fp) {
  return support::Sha256Digest{fp}.hex().substr(0, 16);
}

}  // namespace

std::string describe_shard_meta_mismatch(const support::ShardMeta& got,
                                         const support::ShardMeta& want) {
  if (got.shard_index != want.shard_index ||
      got.shard_count != want.shard_count) {
    return support::format("shard %u/%u vs shard %u/%u", got.shard_index,
                           got.shard_count, want.shard_index,
                           want.shard_count);
  }
  if (got.seed_base != want.seed_base) {
    return support::format(
        "seed base %llu vs %llu",
        static_cast<unsigned long long>(got.seed_base),
        static_cast<unsigned long long>(want.seed_base));
  }
  if (got.corpus_size != want.corpus_size) {
    return support::format(
        "corpus size %llu vs %llu",
        static_cast<unsigned long long>(got.corpus_size),
        static_cast<unsigned long long>(want.corpus_size));
  }
  if (got.outcome_codec_version != want.outcome_codec_version) {
    return support::format("outcome codec version %u vs %u",
                           got.outcome_codec_version,
                           want.outcome_codec_version);
  }
  if (got.config_fingerprint != want.config_fingerprint) {
    return support::format(
        "config fingerprint %s... vs %s... (differently configured "
        "pipelines)",
        hex_prefix(got.config_fingerprint).c_str(),
        hex_prefix(want.config_fingerprint).c_str());
  }
  return {};
}

support::Result<OutcomeRecords> read_outcome_records(const std::string& path) {
  auto read = support::read_journal(path);
  if (!read.ok()) return support::Result<OutcomeRecords>::failure(read.error());
  OutcomeRecords out;
  out.bytes_recovered = read.value().bytes_recovered;
  out.bytes_discarded = read.value().bytes_discarded;
  std::span<support::Blob> frames(read.value().records);
  if (!frames.empty()) {
    try {
      out.meta = support::decode_shard_meta(frames.front());
      frames = frames.subspan(1);
    } catch (const support::ParseError& e) {
      out.meta_error = support::is_shard_meta(frames.front())
                           ? std::string("corrupt metadata record: ") + e.what()
                           : "first record is not a metadata record (a "
                             "journal from an older build?)";
    }
  }
  out.records.reserve(frames.size());
  AppOutcome header;  // each record's fixed fields; no report is decoded
  for (support::Blob& frame : frames) {
    OutcomeRecord& record = out.records.emplace_back();
    try {
      support::ByteReader r(frame);
      record.index = decode_outcome_header(r, header);
      record.seed = header.seed;
      record.job = header.job;
      record.sandbox_fate = header.sandbox_fate;
      record.readable = true;
    } catch (const support::ParseError&) {  // unreadable: reported
    }
    record.payload = std::move(frame);
  }
  return out;
}

support::Result<OutcomeRecords> read_outcome_journal(
    const std::string& path,
    const std::function<void(std::size_t index, AppOutcome&&)>& take) {
  using ReadResult = support::Result<OutcomeRecords>;
  auto read = read_outcome_records(path);
  if (!read.ok()) return read;
  const OutcomeRecords& journal = read.value();
  if (!journal.meta_error.empty()) {
    return ReadResult::failure(path + ": " + journal.meta_error);
  }
  if (!journal.meta.has_value()) return read;  // no intact record at all
  const support::ShardMeta& meta = *journal.meta;
  if (meta.outcome_codec_version != kOutcomeCodecVersion) {
    return ReadResult::failure(support::format(
        "%s: outcome codec version %u but this build reads version %u",
        path.c_str(), meta.outcome_codec_version, kOutcomeCodecVersion));
  }
  if (meta.corpus_size > kMaxCorpusApps) {
    return ReadResult::failure(support::format(
        "%s: corpus size %llu exceeds the %llu-app ceiling", path.c_str(),
        static_cast<unsigned long long>(meta.corpus_size),
        static_cast<unsigned long long>(kMaxCorpusApps)));
  }
  for (const OutcomeRecord& record : journal.records) {
    DecodedOutcome decoded;
    try {
      // Also refuses a second metadata record.
      decoded = decode_outcome(record.payload);
    } catch (const std::exception& e) {
      // A framed record that passed its CRC but fails to decode means the
      // journal does not belong to this build: never silently re-run (and
      // double-count) the app.
      return ReadResult::failure(path + ": corrupt journal record: " +
                                 e.what());
    }
    if (decoded.index >= meta.corpus_size) {
      return ReadResult::failure(support::format(
          "%s: record for app %zu but the corpus has %llu apps",
          path.c_str(), decoded.index,
          static_cast<unsigned long long>(meta.corpus_size)));
    }
    if (decoded.index % meta.shard_count != meta.shard_index) {
      return ReadResult::failure(support::format(
          "%s: record for app %zu does not belong to shard %u/%u "
          "(overlapping shards?)",
          path.c_str(), decoded.index, meta.shard_index, meta.shard_count));
    }
    if (take) take(decoded.index, std::move(decoded.outcome));
  }
  return read;
}

support::Result<ShardMergeSummary> merge_shard_journals(
    const std::string& out_path, std::span<const std::string> shard_paths) {
  if (shard_paths.empty()) {
    return MergeResult::failure("merge: no shard journals given");
  }

  ShardMergeSummary summary;
  // Winning payload per global index (an outcome payload is never empty —
  // it leads with a version byte — so empty means "not covered yet").
  std::vector<support::Blob> winners;
  std::vector<char> shard_seen;
  std::optional<support::ShardMeta> reference;  // shard_index normalized

  for (const std::string& path : shard_paths) {
    auto read = read_outcome_journal(path);
    if (!read.ok()) return MergeResult::failure("merge: " + read.error());
    OutcomeRecords& journal = read.value();
    summary.torn_bytes += journal.bytes_discarded;
    if (!journal.meta.has_value()) {
      return MergeResult::failure("merge: " + path +
                                  ": holds no metadata record");
    }
    const support::ShardMeta& meta = *journal.meta;
    support::ShardMeta normalized = meta;
    normalized.shard_index = 0;
    if (!reference.has_value()) {
      reference = normalized;
      winners.assign(static_cast<std::size_t>(meta.corpus_size), {});
      shard_seen.assign(meta.shard_count, 0);
    } else if (const std::string mismatch =
                   describe_shard_meta_mismatch(normalized, *reference);
               !mismatch.empty()) {
      return MergeResult::failure("merge: " + path +
                                  ": metadata disagrees with " +
                                  shard_paths.front() + ": " + mismatch);
    }
    if (shard_seen[meta.shard_index]) {
      return MergeResult::failure(support::format(
          "merge: %s: shard %u/%u appears in more than one input journal",
          path.c_str(), meta.shard_index, meta.shard_count));
    }
    shard_seen[meta.shard_index] = 1;

    for (OutcomeRecord& record : journal.records) {
      const std::uint64_t seed = seed_for_app(meta.seed_base, record.index);
      if (record.seed != seed) {
        return MergeResult::failure(support::format(
            "merge: %s: app %zu journaled with seed %llu but the shard's "
            "seed base derives %llu",
            path.c_str(), record.index,
            static_cast<unsigned long long>(record.seed),
            static_cast<unsigned long long>(seed)));
      }
      // Last writer wins; residue classes keep the shards apart.
      if (!winners[record.index].empty()) ++summary.duplicates_dropped;
      winners[record.index] = std::move(record.payload);
    }
  }

  summary.shard_count = reference->shard_count;
  summary.corpus_size = reference->corpus_size;
  summary.meta = *reference;
  summary.meta.shard_count = 1;
  for (std::uint32_t shard = 0; shard < summary.shard_count; ++shard) {
    if (!shard_seen[shard]) {
      return MergeResult::failure(support::format(
          "merge: missing the journal for shard %u/%u (got %zu of %u "
          "shard journals)",
          shard, summary.shard_count, shard_paths.size(),
          summary.shard_count));
    }
  }
  std::size_t missing = 0;
  std::size_t first_missing = 0;
  for (std::size_t index = 0; index < winners.size(); ++index) {
    if (winners[index].empty()) {
      if (missing == 0) first_missing = index;
      ++missing;
    }
  }
  if (missing > 0) {
    return MergeResult::failure(support::format(
        "merge: %zu of %zu app outcome(s) missing (first missing app %zu) "
        "— an incomplete or torn shard; resume that shard to completion "
        "and merge again",
        missing, winners.size(), first_missing));
  }

  // Everything validated in memory; only now touch the output path.
  support::JournalWriterOptions options;
  options.truncate = true;
  auto writer = support::JournalWriter::open(out_path, options);
  if (!writer.ok()) {
    return MergeResult::failure("merge: " + writer.error());
  }
  support::JournalWriter out = std::move(writer).take();
  if (const support::Status stamped =
          out.append(support::encode_shard_meta(summary.meta));
      !stamped.ok()) {
    return MergeResult::failure("merge: " + stamped.error());
  }
  for (const support::Blob& record : winners) {
    if (const support::Status appended = out.append(record); !appended.ok()) {
      return MergeResult::failure("merge: " + appended.error());
    }
  }
  if (const support::Status sealed = out.seal(); !sealed.ok()) {
    return MergeResult::failure("merge: " + sealed.error());
  }
  summary.records_merged = winners.size();
  return summary;
}

}  // namespace dydroid::driver
