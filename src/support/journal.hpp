// Write-ahead outcome journal (docs/CHECKPOINT.md).
//
// A multi-day measurement campaign dies in more ways than its apps do: the
// driver gets OOM-killed, the machine reboots, the operator hits Ctrl-C.
// The journal is the persistence layer that makes the *run* survivable the
// way the retry/quarantine policy (docs/FAULTS.md) made the per-app
// analysis survivable: every finished app outcome is appended as one
// CRC32-framed record before the run advances, so a killed run resumes
// from its last complete app instead of restarting the corpus.
//
// On-disk format (all integers little-endian):
//
//   file   := magic record*
//   magic  := "DYJRNL01"                      (8 bytes)
//   record := len:u32 crc:u32 payload[len]    (crc = CRC-32 of payload)
//
// Durability & recovery rules:
//   * Appends are atomic at the frame level: one frame, one write(2) to an
//     O_APPEND descriptor. A crash can only truncate the *tail* frame.
//   * `fsync_each_record` trades throughput for the guarantee that an
//     acknowledged append survives power loss (off by default: the kernel
//     flushes on close/seal, which covers driver-process death).
//   * The reader walks frames front to back and stops at the first
//     inconsistency — short header, length past EOF, CRC mismatch — and
//     returns every record before it. A torn or bit-flipped tail therefore
//     costs at most the records at/after the damage, never the run.
//   * Duplicate records for the same logical key are the *caller's*
//     resume semantics (the corpus driver replays last-writer-wins).
//
// Thread-safety: JournalWriter is not internally synchronized; the corpus
// driver serializes appends under its journal mutex. read_journal is a
// pure function of the file contents.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/blob.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace dydroid::support {

/// File magic: "DYJRNL01" (bump the trailing digits on format changes).
inline constexpr std::array<std::uint8_t, 8> kJournalMagic = {
    'D', 'Y', 'J', 'R', 'N', 'L', '0', '1'};

/// Bytes of framing per record (len + crc) on top of the payload.
inline constexpr std::size_t kJournalFrameOverhead = 8;

struct JournalWriterOptions {
  /// fsync(2) after every appended record. Default off: record durability
  /// then depends on the kernel page cache (survives driver death, not
  /// power loss); seal()/close always flush.
  bool fsync_each_record = false;
  /// Start a fresh journal (truncate any existing file) instead of
  /// appending to it. Resume runs append; fresh runs truncate.
  bool truncate = false;
  /// Injection site honored by append(): an injected failure leaves a
  /// genuinely torn half-frame on disk. The outcome journal keeps
  /// journal.append; the result cache's store writes under cache.write.
  FaultSite fault_site = FaultSite::kJournalAppend;
};

/// Append-only writer over an O_APPEND descriptor.
class JournalWriter {
 public:
  /// Open (creating if absent) a journal for appending. A new or truncated
  /// file gets the magic header; an existing file must carry it.
  static Result<JournalWriter> open(const std::string& path,
                                    JournalWriterOptions options = {});

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Append one record (single frame, single write). Honors the
  /// FaultSite::kJournalAppend injection site: an injected append failure
  /// leaves a deliberately torn half-frame on disk — exactly the artifact
  /// a real crash mid-write leaves — and reports failure.
  Status append(std::span<const std::uint8_t> payload);

  /// fsync the descriptor.
  Status sync();

  /// Seal the journal: flush and close the descriptor. Idempotent; also
  /// performed by the destructor.
  Status seal();

  /// Records successfully appended through this writer (excludes records
  /// already in the file when opened in append mode).
  [[nodiscard]] std::size_t appended() const { return appended_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

 private:
  JournalWriter(int fd, std::string path, JournalWriterOptions options)
      : fd_(fd), path_(std::move(path)), options_(options) {}

  int fd_ = -1;
  std::string path_;
  JournalWriterOptions options_;
  std::size_t appended_ = 0;
};

struct JournalReadResult {
  /// Every intact record's payload, in file order: slices of the one
  /// buffer the journal was read into, which they keep alive. No record is
  /// copied out of it.
  std::vector<Blob> records;
  /// Length of the valid prefix (magic + intact frames).
  std::size_t bytes_recovered = 0;
  /// Trailing bytes dropped by torn-tail / bad-CRC recovery.
  std::size_t bytes_discarded = 0;

  /// True when recovery discarded a damaged tail.
  [[nodiscard]] bool torn() const { return bytes_discarded > 0; }
};

/// Read every intact record. An empty file is a valid, empty journal; a
/// missing file, anything but a regular file (a directory, a FIFO) and a
/// wrong magic each fail naming the path — loudly, never as a silent empty
/// result or an exception; a torn or bit-flipped tail is
/// recovered per the header rules. The file is read with one bulk read
/// into an exact-size buffer, which becomes one Blob; the records are
/// slices of it, so the buffer lives as long as any record does.
Result<JournalReadResult> read_journal(const std::string& path);

/// Chop a damaged journal back to its valid prefix (the bytes_recovered a
/// read reported) so a resume run can append after the last intact record
/// instead of behind unreadable garbage.
Status truncate_journal(const std::string& path, std::size_t bytes_recovered);

/// Parse journal bytes already in memory (the reader core, shared with the
/// pool's RPC decoders, which pass their own magic; exposed for the fuzz
/// suite). The records are slices of `blob`. A wrong magic fails with a
/// message that names no source; each caller says which.
Result<JournalReadResult> parse_journal(
    const Blob& blob,
    const std::array<std::uint8_t, 8>& magic = kJournalMagic);

/// Append one CRC frame (len + crc + payload) for `payload` to an
/// in-memory writer. Produces exactly the bytes JournalWriter::append puts
/// on disk, so any stream stamped with a frame-layer magic — a journal
/// file, the sandbox result pipe (docs/ISOLATION.md) — can be framed
/// without a file descriptor and read back with parse_journal.
void encode_frame(ByteWriter& w, std::span<const std::uint8_t> payload);

// ---- journal metadata record (docs/SHARDING.md) ----------------------------
//
// Every outcome journal leads with one metadata record, written before any
// outcome: a `--shard I/N` run stamps I/N, an unsharded run and a merged
// journal 0/1. It pins everything a merge or a resume must agree on: which
// shard of how many this journal belongs to, the seed base the
// global-index seeds derive from, the size of the full corpus, the outcome
// codec version of the records that follow, and the SHA-256 config
// fingerprint of the pipeline that produced them. `dydroid merge` refuses
// to fold journals whose metadata disagrees; a resume refuses a journal
// whose metadata does not match the resuming run's configuration.

/// First payload byte of a shard-metadata record. Disjoint from every
/// outcome-codec version byte (those count up from 1), so a reader can
/// tell the two record kinds apart from the first byte alone.
inline constexpr std::uint8_t kShardMetaTag = 0xF5;

/// Shard-metadata payload format version.
inline constexpr std::uint8_t kShardMetaVersion = 1;

struct ShardMeta {
  /// This journal's shard: global corpus indices ≡ shard_index (mod
  /// shard_count).
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Base of the index-derived per-app seeds (seed_for_app).
  std::uint64_t seed_base = 0;
  /// Apps in the *full* corpus, across all shards.
  std::uint64_t corpus_size = 0;
  /// driver::kOutcomeCodecVersion of the outcome records that follow.
  std::uint8_t outcome_codec_version = 0;
  /// driver::config_fingerprint of the producing pipeline (SHA-256 bytes).
  std::array<std::uint8_t, 32> config_fingerprint{};

  friend bool operator==(const ShardMeta&, const ShardMeta&) = default;
};

/// Encode a shard-metadata record payload (tag + version + fields).
[[nodiscard]] Bytes encode_shard_meta(const ShardMeta& meta);

/// True when `payload` starts with the shard-metadata tag byte — i.e. the
/// record is shard metadata, not an encoded outcome.
[[nodiscard]] bool is_shard_meta(std::span<const std::uint8_t> payload);

/// Decode a metadata payload. Throws ParseError on a bad tag, unsupported
/// version, a shard index not below the shard count (so a count of 0),
/// truncation or trailing bytes.
[[nodiscard]] ShardMeta decode_shard_meta(std::span<const std::uint8_t> payload);

}  // namespace dydroid::support
