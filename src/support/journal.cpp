#include "support/journal.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>

#include "support/fault.hpp"
#include "support/hash.hpp"
#include "support/io.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

#if defined(_WIN32)
#error "support::Journal requires a POSIX platform"
#else
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace dydroid::support {

namespace {

std::string errno_message(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

/// A descriptor opened for reading, closed on every way out of its scope.
class ReadDescriptor {
 public:
  explicit ReadDescriptor(int fd) : fd_(fd) {}
  ~ReadDescriptor() {
    if (fd_ >= 0) ::close(fd_);
  }
  ReadDescriptor(const ReadDescriptor&) = delete;
  ReadDescriptor& operator=(const ReadDescriptor&) = delete;
  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

/// Little-endian frame header: u32 payload length, u32 CRC-32.
void encode_frame_header(std::uint8_t (&header)[kJournalFrameOverhead],
                         std::uint32_t len, std::uint32_t crc) {
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>(len >> (8 * i));
    header[4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

}  // namespace

Result<JournalWriter> JournalWriter::open(const std::string& path,
                                          JournalWriterOptions options) {
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (options.truncate) flags |= O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Result<JournalWriter>::failure(
        errno_message("journal: cannot open", path));
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size == 0) {
    // Fresh (or truncated) journal: stamp the magic.
    if (!write_fully(fd, kJournalMagic.data(), kJournalMagic.size())) {
      const std::string message =
          errno_message("journal: cannot write header to", path);
      ::close(fd);
      return Result<JournalWriter>::failure(message);
    }
  } else {
    // Existing journal (resume): verify the magic so we never append
    // records to something that is not a journal.
    std::ifstream in(path, std::ios::binary);
    std::array<char, 8> magic{};
    in.read(magic.data(), static_cast<std::streamsize>(magic.size()));
    const bool good =
        in.gcount() == static_cast<std::streamsize>(magic.size()) &&
        std::memcmp(magic.data(), kJournalMagic.data(), magic.size()) == 0;
    if (!good) {
      ::close(fd);
      return Result<JournalWriter>::failure(
          "journal: " + path + " exists but is not a journal (bad magic)");
    }
  }
  return JournalWriter(fd, path, options);
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      options_(other.options_),
      appended_(other.appended_) {}

JournalWriter::~JournalWriter() { (void)seal(); }

Status JournalWriter::append(std::span<const std::uint8_t> payload) {
  if (fd_ < 0) {
    return Status::failure("journal: append on sealed journal " + path_);
  }
  std::uint8_t header[kJournalFrameOverhead];
  encode_frame_header(header, static_cast<std::uint32_t>(payload.size()),
                      crc32(payload));

  if (fault_fire(options_.fault_site)) {
    // Simulate the write dying halfway: leave a genuinely torn frame on
    // disk (the exact artifact of a crash mid-append) and fail loudly.
    // The reader's torn-tail recovery drops it; the app simply re-runs on
    // resume (journal) or recomputes on the next run (cache).
    const std::size_t half = (sizeof(header) + payload.size()) / 2;
    if (half <= sizeof(header)) {
      (void)write_fully(fd_, header, half);
    } else {
      (void)writev_fully(fd_, header, sizeof(header), payload.data(),
                         half - sizeof(header));
    }
    return Status::failure(fault_message(options_.fault_site));
  }

  // One writev, no frame buffer: with O_APPEND the kernel serializes the
  // whole vector at the end of the file, so concurrent appenders (already
  // mutex-guarded by the runner) and crash recovery both see whole or
  // cleanly torn frames. The write-only latency (excluding encode and lock
  // wait, which the runner's "journal"/"append" span covers) feeds the
  // journal.append_write histogram when metrics are on.
  const Stopwatch write_clock;
  if (!writev_fully(fd_, header, sizeof(header), payload.data(),
                    payload.size())) {
    return Status::failure(errno_message("journal: append failed on", path_));
  }
  ++appended_;
  if (metrics_enabled()) {
    observe_us("journal.append_write",
               static_cast<std::uint64_t>(write_clock.elapsed_ms() * 1000.0));
    count("journal.appends");
  }
  if (options_.fsync_each_record) return sync();
  return {};
}

Status JournalWriter::sync() {
  if (fd_ < 0) return Status::failure("journal: sync on sealed journal");
  if (::fsync(fd_) != 0) {
    return Status::failure(errno_message("journal: fsync failed on", path_));
  }
  return {};
}

Status JournalWriter::seal() {
  if (fd_ < 0) return {};
  Status status;
  if (::fsync(fd_) != 0) {
    status = Status::failure(errno_message("journal: fsync failed on", path_));
  }
  ::close(fd_);
  fd_ = -1;
  return status;
}

Result<JournalReadResult> parse_journal(const Blob& blob,
                                        const std::array<std::uint8_t, 8>& magic) {
  JournalReadResult result;
  const std::span<const std::uint8_t> data = blob.span();
  if (data.empty()) return result;  // a fresh, never-written journal
  if (data.size() < magic.size() ||
      std::memcmp(data.data(), magic.data(), magic.size()) != 0) {
    return Result<JournalReadResult>::failure(
        "bad magic (not a journal file)");
  }
  std::size_t pos = magic.size();
  result.bytes_recovered = pos;
  while (pos < data.size()) {
    // Frame header: len + crc. A short header is a torn tail.
    if (data.size() - pos < kJournalFrameOverhead) break;
    ByteReader header(data.subspan(pos, kJournalFrameOverhead));
    const std::uint32_t len = header.u32();
    const std::uint32_t crc = header.u32();
    // A length running past EOF is either a torn payload or a bit-flipped
    // length field; either way the frame chain is untrustworthy from here.
    if (len > data.size() - pos - kJournalFrameOverhead) break;
    const auto payload = data.subspan(pos + kJournalFrameOverhead, len);
    if (crc32(payload) != crc) break;  // bit flip in len, crc or payload
    result.records.push_back(blob.slice(pos + kJournalFrameOverhead, len));
    pos += kJournalFrameOverhead + len;
    result.bytes_recovered = pos;
  }
  result.bytes_discarded = data.size() - result.bytes_recovered;
  return result;
}

void encode_frame(ByteWriter& w, std::span<const std::uint8_t> payload) {
  std::uint8_t header[kJournalFrameOverhead];
  encode_frame_header(header, static_cast<std::uint32_t>(payload.size()),
                      crc32(payload));
  w.raw(header);
  w.raw(payload);
}

Status truncate_journal(const std::string& path, std::size_t bytes_recovered) {
  const ssize_t truncated = retry_eintr([&] {
    return static_cast<ssize_t>(
        ::truncate(path.c_str(), static_cast<off_t>(bytes_recovered)));
  });
  if (truncated != 0) {
    return Status::failure(errno_message("journal: cannot truncate", path));
  }
  // Make the chop durable before anyone appends after it: fsync the file
  // (the new, shorter length) and its parent directory. Without the
  // directory fsync the metadata swap can vanish after power loss, and a
  // later reader would walk straight back into the damaged tail.
  const int fd = static_cast<int>(retry_eintr([&] {
    return static_cast<ssize_t>(::open(path.c_str(), O_RDONLY));
  }));
  if (fd >= 0) {
    (void)retry_eintr([&] { return static_cast<ssize_t>(::fsync(fd)); });
    ::close(fd);
  }
  if (const Status synced = fsync_parent_dir(path); !synced.ok()) {
    return synced;
  }
  return {};
}

Bytes encode_shard_meta(const ShardMeta& meta) {
  ByteWriter w;
  w.u8(kShardMetaTag);
  w.u8(kShardMetaVersion);
  w.u32(meta.shard_index);
  w.u32(meta.shard_count);
  w.u64(meta.seed_base);
  w.u64(meta.corpus_size);
  w.u8(meta.outcome_codec_version);
  w.raw(meta.config_fingerprint);
  return w.take();
}

bool is_shard_meta(std::span<const std::uint8_t> payload) {
  return !payload.empty() && payload.front() == kShardMetaTag;
}

ShardMeta decode_shard_meta(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  if (r.u8() != kShardMetaTag) {
    throw ParseError("shard meta: bad tag (not a shard-metadata record)");
  }
  const std::uint8_t version = r.u8();
  if (version != kShardMetaVersion) {
    throw ParseError("shard meta: unsupported version " +
                     std::to_string(version));
  }
  ShardMeta meta;
  meta.shard_index = r.u32();
  meta.shard_count = r.u32();
  meta.seed_base = r.u64();
  meta.corpus_size = r.u64();
  meta.outcome_codec_version = r.u8();
  const auto fp = r.view(meta.config_fingerprint.size());
  std::copy(fp.begin(), fp.end(), meta.config_fingerprint.begin());
  if (!r.at_end()) {
    throw ParseError("shard meta: trailing bytes after fingerprint");
  }
  // Also rejects a shard count of 0: no index is below it.
  if (meta.shard_index >= meta.shard_count) {
    throw ParseError(
        "shard meta: shard index " + std::to_string(meta.shard_index) +
        " out of range for " + std::to_string(meta.shard_count) + " shard(s)");
  }
  return meta;
}

Result<JournalReadResult> read_journal(const std::string& path) {
  // One exact-size buffer and one bulk read: a cache store runs to tens of
  // megabytes, and every cache open, resume and merge starts here. The
  // buffer becomes the records' one owner; nothing is copied out of it.
  // O_NONBLOCK keeps a FIFO on the path from blocking the open; it changes
  // nothing for a regular file.
  const ReadDescriptor in(static_cast<int>(retry_eintr([&] {
    return static_cast<ssize_t>(
        ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK));
  })));
  if (in.get() < 0) {
    return Result<JournalReadResult>::failure(
        errno_message("journal: cannot open", path));
  }
  struct stat st {};
  if (::fstat(in.get(), &st) != 0) {
    return Result<JournalReadResult>::failure(
        errno_message("journal: cannot stat", path));
  }
  if (!S_ISREG(st.st_mode)) {
    return Result<JournalReadResult>::failure(
        "journal: " + path + " is not a regular file");
  }
  // Allocated for overwrite: read(2) fills it, so a zero-fill of the whole
  // store first would be pure waste.
  const auto size = static_cast<std::size_t>(st.st_size);
  std::shared_ptr<std::uint8_t[]> data =
      std::make_shared_for_overwrite<std::uint8_t[]>(size);
  const ssize_t got = read_exact(in.get(), data.get(), size);
  if (got < 0) {
    return Result<JournalReadResult>::failure(
        errno_message("journal: cannot read", path));
  }
  // A file cut short since the fstat reads as what is there: the frame
  // walk treats it like any other torn tail.
  auto parsed = parse_journal(
      Blob::take(std::move(data), static_cast<std::size_t>(got)));
  if (!parsed.ok()) {
    return Result<JournalReadResult>::failure("journal: " + path + ": " +
                                              parsed.error());
  }
  return parsed;
}

}  // namespace dydroid::support
