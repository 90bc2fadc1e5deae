// support::Journal unit tests (docs/CHECKPOINT.md): framing round-trips,
// reopen-and-append, magic validation, and the recovery rules — a torn
// tail or a bit-flipped record costs the damaged suffix, never the valid
// prefix, and never the process.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "support/blob.hpp"
#include "support/hash.hpp"
#include "support/io.hpp"
#include "support/journal.hpp"

namespace dydroid::support {
namespace {

/// Unique-ish temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    path_ = testing::TempDir() + "dydroid_journal_" + tag + "_" +
            std::to_string(::getpid()) + ".jrnl";
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Bytes bytes_of(std::initializer_list<int> values) {
  Bytes out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

Bytes file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

TEST(Journal, AppendThenReadRoundTrips) {
  TempFile file("roundtrip");
  const std::vector<Bytes> records = {
      bytes_of({1, 2, 3}), bytes_of({}), bytes_of({0xff, 0x00, 0x7f, 0x80})};
  {
    auto writer = JournalWriter::open(file.path());
    ASSERT_TRUE(writer.ok()) << writer.error();
    auto w = std::move(writer).take();
    for (const auto& record : records) {
      ASSERT_TRUE(w.append(record).ok());
    }
    EXPECT_EQ(w.appended(), records.size());
    ASSERT_TRUE(w.seal().ok());
    EXPECT_FALSE(w.is_open());
  }
  auto read = read_journal(file.path());
  ASSERT_TRUE(read.ok()) << read.error();
  EXPECT_FALSE(read.value().torn());
  EXPECT_EQ(read.value().bytes_discarded, 0u);
  ASSERT_EQ(read.value().records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(read.value().records[i], records[i]) << "record " << i;
  }
}

TEST(Journal, ReopenAppendsAfterExistingRecords) {
  TempFile file("reopen");
  {
    auto w = JournalWriter::open(file.path());
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().append(bytes_of({1})).ok());
  }  // destructor seals
  {
    auto w = JournalWriter::open(file.path());  // append mode (no truncate)
    ASSERT_TRUE(w.ok()) << w.error();
    ASSERT_TRUE(w.value().append(bytes_of({2})).ok());
    // appended() counts only this writer's records.
    EXPECT_EQ(w.value().appended(), 1u);
  }
  auto read = read_journal(file.path());
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().records.size(), 2u);
  EXPECT_EQ(read.value().records[0], bytes_of({1}));
  EXPECT_EQ(read.value().records[1], bytes_of({2}));
}

TEST(Journal, TruncateStartsFresh) {
  TempFile file("truncate");
  {
    auto w = JournalWriter::open(file.path());
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().append(bytes_of({1, 1, 1})).ok());
  }
  JournalWriterOptions options;
  options.truncate = true;
  {
    auto w = JournalWriter::open(file.path(), options);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().append(bytes_of({9})).ok());
  }
  auto read = read_journal(file.path());
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().records.size(), 1u);
  EXPECT_EQ(read.value().records[0], bytes_of({9}));
}

TEST(Journal, FsyncEachRecordStillRoundTrips) {
  TempFile file("fsync");
  JournalWriterOptions options;
  options.fsync_each_record = true;
  auto w = JournalWriter::open(file.path(), options);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.value().append(bytes_of({5, 6})).ok());
  ASSERT_TRUE(w.value().sync().ok());
  ASSERT_TRUE(w.value().seal().ok());
  // seal() is idempotent.
  ASSERT_TRUE(w.value().seal().ok());
  auto read = read_journal(file.path());
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().records.size(), 1u);
}

// ---------------------------------------------------------------------------
// Loud failures: a journal that is *absent* or *not a journal* must never
// read as a valid empty one (that would silently restart a resumed run).
// ---------------------------------------------------------------------------

TEST(Journal, MissingFileFailsLoudly) {
  auto read = read_journal(testing::TempDir() + "does_not_exist.jrnl");
  EXPECT_FALSE(read.ok());
}

// A directory on the path is not a journal: the reader reports a failed
// Result naming the path instead of letting an I/O exception escape (both
// `survey --resume DIR` and `--cache C` with C/results.dyc a directory
// used to die with libstdc++'s "basic_filebuf::underflow" text).
TEST(Journal, DirectoryFailsLoudly) {
  const std::string dir = testing::TempDir() + "dydroid_journal_dir_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const auto read = read_journal(dir);
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.error().find(dir), std::string::npos) << read.error();
  EXPECT_NE(read.error().find("not a regular file"), std::string::npos)
      << read.error();
}

TEST(Journal, WrongMagicFailsLoudly) {
  TempFile file("magic");
  write_file(file.path(), bytes_of({'N', 'O', 'T', 'A', 'J', 'R', 'N', 'L'}));
  EXPECT_FALSE(read_journal(file.path()).ok());
  // The writer refuses to append to it, too.
  EXPECT_FALSE(JournalWriter::open(file.path()).ok());
}

TEST(Journal, ShortMagicFailsLoudly) {
  TempFile file("short");
  write_file(file.path(), bytes_of({'D', 'Y', 'J'}));
  EXPECT_FALSE(read_journal(file.path()).ok());
}

TEST(Journal, EmptyBytesParseAsEmptyJournal) {
  // parse_journal on zero bytes == freshly created, never-written journal.
  const auto parsed = parse_journal({});
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().records.empty());
  EXPECT_FALSE(parsed.value().torn());
}

TEST(Journal, MagicOnlyFileIsEmptyJournal) {
  TempFile file("magiconly");
  { ASSERT_TRUE(JournalWriter::open(file.path()).ok()); }
  auto read = read_journal(file.path());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().records.empty());
  EXPECT_FALSE(read.value().torn());
}

// ---------------------------------------------------------------------------
// Recovery: damage costs the suffix, never the prefix.
// ---------------------------------------------------------------------------

/// A sealed three-record journal to damage.
Bytes intact_journal(const std::string& path) {
  auto w = JournalWriter::open(path);
  EXPECT_TRUE(w.ok());
  EXPECT_TRUE(w.value().append(bytes_of({1, 2, 3, 4})).ok());
  EXPECT_TRUE(w.value().append(bytes_of({5, 6})).ok());
  EXPECT_TRUE(w.value().append(bytes_of({7, 8, 9})).ok());
  EXPECT_TRUE(w.value().seal().ok());
  return file_bytes(path);
}

TEST(Journal, TornTailRecoversPrefix) {
  TempFile file("torn");
  const Bytes intact = intact_journal(file.path());
  // Truncate mid-way through the last frame at every possible cut point:
  // the first two records always survive.
  const std::size_t last_frame_start =
      intact.size() - (kJournalFrameOverhead + 3);
  for (std::size_t cut = last_frame_start + 1; cut < intact.size(); ++cut) {
    Bytes torn(intact.begin(), intact.begin() + static_cast<long>(cut));
    const auto parsed = parse_journal(Blob::copy_of(torn));
    ASSERT_TRUE(parsed.ok()) << "cut at " << cut;
    EXPECT_EQ(parsed.value().records.size(), 2u) << "cut at " << cut;
    EXPECT_TRUE(parsed.value().torn()) << "cut at " << cut;
  }
}

TEST(Journal, BitFlipAnywhereInLastFrameDropsOnlyThatRecord) {
  TempFile file("flip");
  const Bytes intact = intact_journal(file.path());
  const std::size_t last_frame_start =
      intact.size() - (kJournalFrameOverhead + 3);
  // Flip every bit of the last frame (len, crc and payload bytes): the
  // reader must keep the first two records and drop the damaged one.
  for (std::size_t pos = last_frame_start; pos < intact.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = intact;
      flipped[pos] ^= static_cast<std::uint8_t>(1u << bit);
      const auto parsed = parse_journal(Blob::copy_of(flipped));
      ASSERT_TRUE(parsed.ok()) << "flip at " << pos << " bit " << bit;
      // A flipped length can make the frame look short (torn) or the CRC
      // fail; either way at most the last record is lost and the first two
      // are byte-identical.
      ASSERT_GE(parsed.value().records.size(), 2u)
          << "flip at " << pos << " bit " << bit;
      EXPECT_EQ(parsed.value().records[0], bytes_of({1, 2, 3, 4}));
      EXPECT_EQ(parsed.value().records[1], bytes_of({5, 6}));
    }
  }
}

TEST(Journal, BitFlipInFirstRecordDropsEverything) {
  TempFile file("flipfirst");
  Bytes intact = intact_journal(file.path());
  // Corrupt the first payload byte (after magic + len + crc).
  intact[kJournalMagic.size() + kJournalFrameOverhead] ^= 0x01;
  const auto parsed = parse_journal(Blob::copy_of(intact));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().records.empty());
  EXPECT_TRUE(parsed.value().torn());
}

TEST(Journal, LengthPastEofIsTornNotOverread) {
  TempFile file("hugelen");
  Bytes data(kJournalMagic.begin(), kJournalMagic.end());
  // Frame claiming a 4GiB-ish payload with only 2 bytes behind it.
  for (std::uint8_t b : {0xff, 0xff, 0xff, 0x7f}) data.push_back(b);
  for (int i = 0; i < 6; ++i) data.push_back(0xab);
  const auto parsed = parse_journal(Blob::copy_of(data));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().records.empty());
  EXPECT_TRUE(parsed.value().torn());
}

TEST(Journal, TruncateThenAppendResumesCleanly) {
  // The resume dance for a torn journal: read (recovering the prefix),
  // chop the damaged tail, reopen for append. The new record must be
  // readable after the surviving ones.
  TempFile file("truncappend");
  const Bytes intact = intact_journal(file.path());
  write_file(file.path(), Bytes(intact.begin(), intact.end() - 2));  // tear
  auto read = read_journal(file.path());
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read.value().torn());
  ASSERT_EQ(read.value().records.size(), 2u);
  ASSERT_TRUE(
      truncate_journal(file.path(), read.value().bytes_recovered).ok());
  {
    auto w = JournalWriter::open(file.path());
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().append(bytes_of({42})).ok());
  }
  auto reread = read_journal(file.path());
  ASSERT_TRUE(reread.ok());
  EXPECT_FALSE(reread.value().torn());
  ASSERT_EQ(reread.value().records.size(), 3u);
  EXPECT_EQ(reread.value().records[0], bytes_of({1, 2, 3, 4}));
  EXPECT_EQ(reread.value().records[1], bytes_of({5, 6}));
  EXPECT_EQ(reread.value().records[2], bytes_of({42}));
}

TEST(Journal, TruncateFsyncsTheParentDirectory) {
  // A truncate(2) is only crash-durable once the parent directory is
  // fsynced; dir_fsyncs() is the test hook proving that path actually ran
  // (the bug was a silent no-op: both files synced, the directory not).
  TempFile file("dirsync");
  const Bytes intact = intact_journal(file.path());
  write_file(file.path(), Bytes(intact.begin(), intact.end() - 2));  // tear
  auto read = read_journal(file.path());
  ASSERT_TRUE(read.ok());
  const std::uint64_t before = dir_fsyncs();
  ASSERT_TRUE(
      truncate_journal(file.path(), read.value().bytes_recovered).ok());
  EXPECT_GT(dir_fsyncs(), before);
}

TEST(Journal, RecoveredByteAccountingAddsUp) {
  TempFile file("accounting");
  const Bytes intact = intact_journal(file.path());
  Bytes torn(intact.begin(), intact.end() - 2);
  const auto parsed = parse_journal(Blob::copy_of(torn));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().bytes_recovered + parsed.value().bytes_discarded,
            torn.size());
}

// ---------------------------------------------------------------------------
// Records are views: slices of the one buffer a read fills.
// ---------------------------------------------------------------------------

TEST(Journal, RecordsOfOneReadShareOneBuffer) {
  TempFile file("onebuffer");
  const Bytes intact = intact_journal(file.path());
  auto read = read_journal(file.path());
  ASSERT_TRUE(read.ok());
  const auto& records = read.value().records;
  ASSERT_EQ(records.size(), 3u);
  for (const Blob& record : records) {
    EXPECT_TRUE(record.shares_buffer_with(records.front()));
  }
  // parse_journal slices the caller's buffer the same way.
  const Blob bytes = Blob::copy_of(intact);
  const auto parsed = parse_journal(bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().records.size(), 3u);
  for (const Blob& record : parsed.value().records) {
    EXPECT_TRUE(record.shares_buffer_with(bytes));
  }
}

TEST(Journal, RecordOutlivesItsReadResult) {
  TempFile file("outlive");
  const Bytes intact = intact_journal(file.path());
  Blob kept;
  {
    auto read = read_journal(file.path());
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(read.value().records.size(), 3u);
    kept = read.value().records[1];
  }  // the read result and every other record are gone
  // Re-framed, the record is its frame on disk byte for byte: the second
  // frame, behind the magic and the 4-byte first record's frame.
  ByteWriter framed;
  encode_frame(framed, kept);
  const std::size_t second = kJournalMagic.size() + kJournalFrameOverhead + 4;
  ASSERT_LE(second + framed.size(), intact.size());
  EXPECT_EQ(framed.data(),
            Bytes(intact.begin() + static_cast<long>(second),
                  intact.begin() + static_cast<long>(second + framed.size())));
}

// ---------------------------------------------------------------------------
// Shard-metadata record codec (docs/SHARDING.md).
// ---------------------------------------------------------------------------

ShardMeta sample_meta() {
  ShardMeta meta;
  meta.shard_index = 2;
  meta.shard_count = 8;
  meta.seed_base = 0xBE9C0000ull;
  meta.corpus_size = 58739;
  meta.outcome_codec_version = 2;
  for (std::size_t i = 0; i < meta.config_fingerprint.size(); ++i) {
    meta.config_fingerprint[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  return meta;
}

TEST(ShardMeta, RoundTripsAllFields) {
  const ShardMeta meta = sample_meta();
  const Bytes encoded = encode_shard_meta(meta);
  ASSERT_TRUE(is_shard_meta(encoded));
  EXPECT_EQ(encoded.front(), kShardMetaTag);
  EXPECT_EQ(decode_shard_meta(encoded), meta);
}

TEST(ShardMeta, OutcomeRecordsAreNotMistakenForMetadata) {
  // Outcome payloads lead with a codec version byte counting up from 1 —
  // never the 0xF5 tag — so the first byte alone separates the kinds.
  EXPECT_FALSE(is_shard_meta(bytes_of({1, 2, 3})));
  EXPECT_FALSE(is_shard_meta(bytes_of({2})));
  EXPECT_FALSE(is_shard_meta(Bytes{}));
}

TEST(ShardMeta, DecodeIsStrict) {
  const Bytes good = encode_shard_meta(sample_meta());
  // Wrong leading tag.
  Bytes wrong_tag = good;
  wrong_tag[0] = 1;
  EXPECT_THROW((void)decode_shard_meta(wrong_tag), ParseError);
  // Unsupported format version.
  Bytes wrong_version = good;
  wrong_version[1] = kShardMetaVersion + 1;
  EXPECT_THROW((void)decode_shard_meta(wrong_version), ParseError);
  // Truncations at every length.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW((void)decode_shard_meta(Bytes(good.begin(),
                                               good.begin() + len)),
                 ParseError)
        << "length " << len;
  }
  // Trailing garbage.
  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_THROW((void)decode_shard_meta(trailing), ParseError);
}

TEST(ShardMeta, DecodeRejectsInconsistentShardFields) {
  ShardMeta meta = sample_meta();
  meta.shard_count = 0;  // a shard of nothing
  EXPECT_THROW((void)decode_shard_meta(encode_shard_meta(meta)), ParseError);
  meta.shard_count = 4;
  meta.shard_index = 4;  // out of range
  EXPECT_THROW((void)decode_shard_meta(encode_shard_meta(meta)), ParseError);
}

}  // namespace
}  // namespace dydroid::support
