// Sandboxed worker processes (docs/ISOLATION.md).
//
// DyDroid survived its 58,739-app crawl because every sample ran in a
// disposable environment: an app that crashes, hangs or exhausts memory
// must never take the measurement infrastructure down with it. A
// PoolWorker is that boundary for the corpus driver. It forks one child,
// applies hard resource limits, then loops over a CRC-framed
// request/response pipe protocol: the parent ships one framed request (a
// batch of one or more app attempts) and blocks, for at most the spawn's
// wall deadline, for one framed response. A worker serves as many apps as
// the driver lets it — one for `--isolate`, which recycles after every
// app, the whole run by default — and every failure mode of a round trip
// is reported:
//
//   * deadline overrun  → SIGKILL + reap, status kTimeout
//   * child signal/exit → EOF mid-message + reap, status kWorkerExit with
//                         the raw exit facts (the driver classifies
//                         crash/OOM from them)
//   * clean response    → status kOk with the complete framed message
//
// After kTimeout, kWorkerExit or kError the worker is dead and reaped; the
// caller respawns a fresh one (the driver re-dispatches or re-sends the
// in-flight apps).
//
// Child-side contract (applied before the serve loop runs):
//   * RLIMIT_CORE = 0 — a crashing child never litters core dumps.
//   * RLIMIT_AS when max_memory_bytes > 0 and the build supports it (see
//     address_space_limit_supported).
//   * std::set_new_handler(_exit(kOomExitCode)) — an allocation failure
//     exits with a reserved code instead of unwinding, so the supervisor
//     can classify out-of-memory deaths distinctly from crashes.
//   * SIGINT/SIGTERM/SIGPIPE reset to SIG_DFL — the parent's handlers must
//     not leak into children.
//   * The serve loop's return value becomes the exit code; an exception
//     escaping it exits with kChildExceptionExitCode. The child always
//     leaves via _exit(2): no destructors, no atexit handlers, no
//     double-flushed stdio buffers inherited from the parent.
//
// Framing: every message is `magic[8] | len:u32 | crc:u32 | payload[len]`
// — the journal frame layer (support/journal.hpp) under a caller-chosen
// magic. read_pool_message locates message boundaries from the length
// header on both sides of the pipe; CRC validation happens in the
// caller's decoder.
//
// fork() in a multithreaded parent: the driver forks from worker threads.
// glibc's malloc is made fork-safe by its own atfork handlers; the log
// sink mutex and the trace and metrics registry mutexes are held across
// every fork by handlers this file registers, so a child never inherits
// one of them locked by a sibling thread.
//
// fd hygiene across forks: a pool runs one worker per driver thread, and a
// child forked later would inherit the parent-side pipe ends of every
// earlier worker — keeping a request pipe writable after the parent closes
// it, so EOF-based death detection and graceful shutdown would hang. The
// child therefore closes every descriptor above stderr except its own two
// pipe ends (one close_range(2) per gap) before anything else runs.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "support/bytes.hpp"
#include "support/error.hpp"

namespace dydroid::support {

/// Reserved child exit codes (chosen high to stay clear of app-meaningful
/// small codes; a serve loop returning them would be misclassified, so
/// don't).
inline constexpr int kOomExitCode = 97;             // new_handler fired
inline constexpr int kChildExceptionExitCode = 96;  // exception escaped loop

/// Hard limits for one worker.
struct WorkerLimits {
  /// RLIMIT_AS in bytes; 0 inherits the parent's limit. The limit covers
  /// the whole address space (the forked image included), so it must
  /// comfortably exceed the parent's footprint. Ignored under ASan/TSan,
  /// whose shadow mappings are incompatible with RLIMIT_AS.
  std::uint64_t max_memory_bytes = 0;
  /// Wall deadline of every call in ms; past it the worker is SIGKILLed.
  /// 0 = wait forever.
  double wall_deadline_ms = 0.0;
};

/// True when this build can enforce RLIMIT_AS (false under ASan/TSan).
[[nodiscard]] bool address_space_limit_supported();

/// Bytes preceding the payload of a framed pool message: the 8-byte magic
/// plus the journal frame header (len + crc).
inline constexpr std::size_t kPoolMessageHeader = 16;

/// Upper bound on a single framed message's payload; a length header past
/// it is treated as stream desync, not an allocation request.
inline constexpr std::uint32_t kPoolMaxMessageBytes = 256u * 1024u * 1024u;

/// What read_pool_message found on the stream.
enum class FrameRead : std::uint8_t {
  kMessage,  // one complete message (magic + len + crc + payload)
  kEof,      // clean EOF before the first byte of a message
  kTorn,     // EOF inside a message: the writer died mid-frame
  kDesync,   // wrong magic or an implausible length header
  kTimeout,  // the deadline passed before the message completed
  kIoError,  // poll/read failed (errno describes it)
};

/// Read exactly one framed message from `fd` into `message`, blocking until
/// it is complete, the stream ends or breaks, or `deadline_ms` passes
/// (measured from the call; 0 = no deadline). Checks the magic and bounds
/// the length header; the CRC is left to the caller's decoder.
[[nodiscard]] FrameRead read_pool_message(
    int fd, const std::array<std::uint8_t, 8>& magic, Bytes& message,
    double deadline_ms = 0.0);

/// Outcome of one PoolWorker::call round trip.
struct PoolRpcResult {
  enum class Status : std::uint8_t {
    kOk,          // message holds one complete framed response
    kTimeout,     // deadline fired; worker SIGKILLed and reaped
    kWorkerExit,  // worker died before a complete response; exit facts set
    kError,       // protocol desync or local I/O error; worker killed
  };
  Status status = Status::kError;
  /// The complete message (magic + frame) on kOk.
  Bytes message;
  /// Reap facts, valid for kTimeout/kWorkerExit/kError: WIFEXITED →
  /// exited/exit_code, else term_signal.
  bool exited = false;
  int exit_code = 0;
  int term_signal = 0;
  std::string error;
};

/// One persistent sandboxed child. Confine to a single driver thread.
class PoolWorker {
 public:
  /// Child-side loop: read framed requests from request_fd, write framed
  /// responses to response_fd, return the exit code (EOF on request_fd is
  /// the graceful-shutdown signal — return 0).
  using ServeLoop = std::function<int(int request_fd, int response_fd)>;

  /// Fork a persistent child running `serve` under `limits`. The rlimits
  /// apply to the worker's whole lifetime; limits.wall_deadline_ms bounds
  /// every call. Fails (no child) when pipe(2) or fork(2) fail.
  static Result<PoolWorker> spawn(const ServeLoop& serve,
                                  const WorkerLimits& limits);

  PoolWorker(PoolWorker&& other) noexcept;
  PoolWorker(const PoolWorker&) = delete;
  PoolWorker& operator=(const PoolWorker&) = delete;
  /// A live worker is SIGKILLed and reaped — destruction never leaks
  /// zombies. Prefer shutdown() for a graceful EOF-driven exit.
  ~PoolWorker();

  /// One framed round trip: ship `request` (a complete magic+frame
  /// message), then read exactly one framed response whose magic must be
  /// `magic`, killing the worker past the spawn's wall deadline. On
  /// anything but kOk the worker is dead and reaped — alive() turns false
  /// and the caller respawns.
  [[nodiscard]] PoolRpcResult call(const Bytes& request,
                                   const std::array<std::uint8_t, 8>& magic);

  /// Graceful shutdown: close the request pipe (the loop sees EOF and
  /// exits), wait up to half a second for the child to hang up its
  /// response pipe, reap it, and escalate to SIGKILL if it lingers.
  void shutdown();

  /// SIGKILL + reap immediately (retiring a wedged worker).
  void kill();

  [[nodiscard]] bool alive() const { return pid_ > 0; }
  [[nodiscard]] int pid() const { return pid_; }

 private:
  PoolWorker(int pid, int request_fd, int response_fd, double deadline_ms)
      : pid_(pid),
        request_fd_(request_fd),
        response_fd_(response_fd),
        deadline_ms_(deadline_ms) {}

  void close_pipes();
  void reap(PoolRpcResult* result);
  /// close_pipes + SIGKILL + reap, recording the facts in `result`.
  void kill_and_reap(PoolRpcResult* result);

  int pid_ = -1;
  int request_fd_ = -1;
  int response_fd_ = -1;
  double deadline_ms_ = 0.0;
};

}  // namespace dydroid::support
