// EINTR-safe POSIX I/O helpers (docs/ISOLATION.md, docs/CHECKPOINT.md).
//
// Every raw read(2)/write(2)/writev(2) in the persistence and sandbox
// layers goes through these wrappers instead of hand-rolled retry loops:
// a signal landing mid-syscall (the sandbox supervisor handles SIGCHLD
// timing, the CLI installs SIGINT/SIGTERM handlers) must never turn into
// a spurious short write, a torn journal frame or a dropped pipe byte.
//
// The directory-durability helpers close the other classic hole: an
// atomic rename(2) or truncate(2) is only crash-durable once the *parent
// directory* is fsynced — without it the swap itself can vanish after
// power loss even though both files were individually synced.
#pragma once

#include <sys/types.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <utility>

#include "support/error.hpp"

namespace dydroid::support {

/// Retry a syscall-shaped callable (returns a signed count, sets errno)
/// until it stops failing with EINTR. Usage:
///   const ssize_t n = retry_eintr([&] { return ::read(fd, buf, len); });
template <typename F>
auto retry_eintr(F&& call) {
  for (;;) {
    const auto result = call();
    if (result >= 0) return result;
    if (errno != EINTR) return result;
  }
}

/// write(2) the whole buffer, retrying on EINTR and short writes.
bool write_fully(int fd, const std::uint8_t* data, std::size_t size);

/// writev(2) header + payload in one call, retrying on EINTR and short
/// writes. The common case is a single syscall with zero copies.
bool writev_fully(int fd, const std::uint8_t* header, std::size_t header_size,
                  const std::uint8_t* payload, std::size_t payload_size);

/// read(2) exactly `size` bytes (blocking), retrying on EINTR and short
/// reads. Returns the byte count actually read: `size` on success, less on
/// EOF, -1 on a read error. A clean EOF *between* messages reads as 0.
ssize_t read_exact(int fd, std::uint8_t* data, std::size_t size);

/// fsync(2) the parent directory of `path`, making a rename/truncate/create
/// in that directory durable. Increments the dir_fsyncs() counter (test
/// hook) on success.
Status fsync_parent_dir(const std::string& path);

/// Process-wide count of successful fsync_parent_dir calls. Test hook: the
/// durability suites assert the fsync path is actually exercised by the
/// seal/compaction/truncate flows it guards.
std::uint64_t dir_fsyncs();

}  // namespace dydroid::support
