// Outcome-journal reading and the deterministic shard merge
// (docs/CHECKPOINT.md, docs/SHARDING.md).
//
// Every outcome journal leads with one support::ShardMeta record: a
// `--shard I/N` run stamps I/N, an unsharded run 0/1, a merge 0/1.
// read_outcome_records is the one reader, under the result cache's
// advisory open too (docs/CACHE.md). read_outcome_journal applies the
// strict rules on top of it; both a resume and merge_shard_journals read
// through that and add only the checks that need their own context (the
// resuming run's jobs and configuration, or all the shards).
//
// Merge invariants (all violations are loud failures, never partial
// output):
//   * Every input journal must lead with a metadata record; all records
//     must agree on shard count, seed base, corpus size, outcome codec
//     version (which must also be THIS build's version) and config
//     fingerprint.
//   * Exactly one journal per shard index 0..N-1 — a duplicated or missing
//     shard is an error, not a guess.
//   * Every outcome record must pass read_outcome_journal and carry the
//     index-derived seed.
//   * All corpus indices 0..corpus_size-1 must be covered (a torn shard
//     tail that lost records surfaces here as missing indices).
//
// The merged journal leads with a 0/1 metadata record carrying the agreed
// fingerprint, followed by the winning record payloads verbatim (byte
// preservation, not re-encoding) in ascending global-index order; it
// resumes like the journal of an unsharded run. Validation completes
// entirely in memory before the output path is opened, so a failed merge
// never leaves a half-written journal.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "driver/corpus_runner.hpp"
#include "support/blob.hpp"
#include "support/error.hpp"
#include "support/journal.hpp"

namespace dydroid::driver {

/// One record, read in place: the payload verbatim (a slice of the read
/// buffer, which it keeps alive) and, when its header decodes, its fields.
struct OutcomeRecord {
  support::Blob payload;
  bool readable = false;
  std::size_t index = 0;
  std::uint64_t seed = 0;
  support::Sha256Digest job;
  SandboxFate sandbox_fate = SandboxFate::kNone;
};

/// A journal's records, never rejected for their contents.
struct OutcomeRecords {
  /// The leading metadata record, when the first record decodes as one;
  /// otherwise, if there are records, meta_error says why not.
  std::optional<support::ShardMeta> meta;
  std::string meta_error;
  /// Every record but a leading metadata record, in file order.
  std::vector<OutcomeRecord> records;
  std::size_t bytes_recovered = 0;  // intact prefix
  std::size_t bytes_discarded = 0;  // damaged tail
};

/// Read the journal at `path`: frames, metadata record and each record's
/// header, no report. Fails only when the file cannot be read as a journal.
[[nodiscard]] support::Result<OutcomeRecords> read_outcome_records(
    const std::string& path);

/// Read the outcome journal at `path` and check everything the journal
/// alone determines: the metadata record comes first, is the only one and
/// decodes; its codec version is this build's and its corpus fits
/// kMaxCorpusApps; every later record decodes to an index inside the
/// corpus and in the metadata's residue class. Each decoded outcome goes
/// to `take` in file order, before the caller's own checks; keeping the
/// last per index is last-writer-wins. A torn tail is recovered, never
/// repaired here. Failures name `path` and the first violated rule.
[[nodiscard]] support::Result<OutcomeRecords> read_outcome_journal(
    const std::string& path,
    const std::function<void(std::size_t index, AppOutcome&&)>& take = {});

/// What a successful merge folded together.
struct ShardMergeSummary {
  /// Shard count the inputs agreed on.
  std::uint32_t shard_count = 0;
  /// Full corpus size the inputs agreed on.
  std::uint64_t corpus_size = 0;
  /// Outcome records written to the merged journal (== corpus_size).
  std::size_t records_merged = 0;
  /// Superseded duplicate records dropped by last-writer-wins.
  std::size_t duplicates_dropped = 0;
  /// Damaged tail bytes dropped across all input journals (recovered the
  /// same way a resume would; losses surface as missing indices).
  std::size_t torn_bytes = 0;
  /// The metadata record the merged journal leads with (shard 0/1).
  support::ShardMeta meta;
};

/// Fold the shard journals at `shard_paths` into one sealed journal at
/// `out_path` (truncating any existing file there only after validation
/// passes). Returns the summary, or a loud failure naming the first
/// violated invariant.
[[nodiscard]] support::Result<ShardMergeSummary> merge_shard_journals(
    const std::string& out_path, std::span<const std::string> shard_paths);

/// Human-readable description of the first field on which two metadata
/// records disagree; empty when they are equal. Shared by the merge
/// (inter-shard agreement) and the runner's resume (journal-vs-run
/// agreement).
[[nodiscard]] std::string describe_shard_meta_mismatch(
    const support::ShardMeta& got, const support::ShardMeta& want);

}  // namespace dydroid::driver
