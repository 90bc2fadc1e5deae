#include "support/io.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#if defined(_WIN32)
#error "support::io requires a POSIX platform"
#else
#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>
#endif

namespace dydroid::support {

namespace {

std::atomic<std::uint64_t> g_dir_fsyncs{0};

}  // namespace

bool write_fully(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = retry_eintr(
        [&] { return ::write(fd, data + written, size - written); });
    if (n < 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool writev_fully(int fd, const std::uint8_t* header, std::size_t header_size,
                  const std::uint8_t* payload, std::size_t payload_size) {
  for (;;) {
    iovec iov[2];
    iov[0].iov_base = const_cast<std::uint8_t*>(header);
    iov[0].iov_len = header_size;
    iov[1].iov_base = const_cast<std::uint8_t*>(payload);
    iov[1].iov_len = payload_size;
    const ssize_t n = retry_eintr([&] { return ::writev(fd, iov, 2); });
    if (n < 0) return false;
    auto written = static_cast<std::size_t>(n);
    if (written >= header_size + payload_size) return true;
    // Short write (rare on regular files, routine on pipes): finish the
    // remainder with plain writes.
    if (written < header_size) {
      header += written;
      header_size -= written;
      continue;
    }
    written -= header_size;
    return write_fully(fd, payload + written, payload_size - written);
  }
}

ssize_t read_exact(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n =
        retry_eintr([&] { return ::read(fd, data + got, size - got); });
    if (n < 0) return got == 0 ? -1 : static_cast<ssize_t>(got);
    if (n == 0) break;  // EOF
    got += static_cast<std::size_t>(n);
  }
  return static_cast<ssize_t>(got);
}

Status fsync_parent_dir(const std::string& path) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const int fd = static_cast<int>(retry_eintr(
      [&] { return static_cast<ssize_t>(::open(parent.c_str(), O_RDONLY)); }));
  if (fd < 0) {
    return Status::failure("io: cannot open directory " + parent.string() +
                           ": " + std::strerror(errno));
  }
  const ssize_t synced =
      retry_eintr([&] { return static_cast<ssize_t>(::fsync(fd)); });
  const int saved_errno = errno;
  ::close(fd);
  if (synced < 0) {
    return Status::failure("io: fsync failed on directory " + parent.string() +
                           ": " + std::strerror(saved_errno));
  }
  g_dir_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return {};
}

std::uint64_t dir_fsyncs() {
  return g_dir_fsyncs.load(std::memory_order_relaxed);
}

}  // namespace dydroid::support
