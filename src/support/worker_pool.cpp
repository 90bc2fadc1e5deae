#include "support/worker_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstring>
#include <mutex>
#include <new>
#include <utility>

#include "support/io.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

#if defined(_WIN32)
#error "support::PoolWorker requires a POSIX platform"
#else
#include <poll.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

// libgcov's flush entry points. Weak, so they stay null unless a
// `--coverage` link pulls them in (tools/coverage.sh passes
// `-Wl,-u,__gcov_dump,-u,__gcov_reset`): a forked worker then drops the
// counts it inherited and writes its own before `_exit`, which skips the
// atexit flush.
extern "C" void __gcov_dump() __attribute__((weak));
extern "C" void __gcov_reset() __attribute__((weak));

namespace dydroid::support {

namespace {

/// How long shutdown() waits for a worker to exit on EOF before SIGKILL.
constexpr double kShutdownGraceMs = 500.0;

/// Largest single read into a message buffer.
constexpr std::size_t kReadChunk = 64 * 1024;

void fork_prepare() {
  log_fork_lock();
  trace_fork_lock();
}

void fork_release() {
  trace_fork_unlock();
  log_fork_unlock();
}

/// Workers fork from driver threads, so a sibling thread can hold the log
/// sink or a trace/metrics registry mutex at fork time; the atfork
/// handlers take them across the fork so both sides resume with them
/// consistent and unlocked. Registered once, lazily, on the first spawn.
void install_fork_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    ::pthread_atfork(&fork_prepare, &fork_release, &fork_release);
  });
}

[[noreturn]] void oom_exit() { ::_exit(kOomExitCode); }

/// Child-side fd hygiene (see the header): close every descriptor above
/// stderr except the child's own two pipe ends.
void close_inherited_fds(int keep_a, int keep_b) {
  unsigned next = 3;
  for (const int keep : {std::min(keep_a, keep_b), std::max(keep_a, keep_b)}) {
    const auto fd = static_cast<unsigned>(keep);
    if (fd < next) continue;
    if (fd > next) (void)::close_range(next, fd - 1, 0);
    next = fd + 1;
  }
  (void)::close_range(next, ~0U, 0);
}

/// Child-side setup between fork and the serve loop. Only setrlimit,
/// signal and set_new_handler: the child is single-threaded.
void child_setup(const WorkerLimits& limits) {
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGPIPE, SIG_DFL);
  rlimit core{0, 0};
  (void)::setrlimit(RLIMIT_CORE, &core);
  if (limits.max_memory_bytes > 0 && address_space_limit_supported()) {
    rlimit as{static_cast<rlim_t>(limits.max_memory_bytes),
              static_cast<rlim_t>(limits.max_memory_bytes)};
    (void)::setrlimit(RLIMIT_AS, &as);
  }
  std::set_new_handler(&oom_exit);
}

/// Write the whole buffer with SIGPIPE suppressed for the calling thread:
/// a worker that died between calls turns the write into a plain EPIPE
/// failure instead of killing the supervisor. The blocked-then-drained
/// pending signal never escapes to the process disposition.
bool write_nosigpipe(int fd, const std::uint8_t* data, std::size_t size) {
  sigset_t pipe_set;
  sigset_t old_set;
  sigemptyset(&pipe_set);
  sigaddset(&pipe_set, SIGPIPE);
  ::pthread_sigmask(SIG_BLOCK, &pipe_set, &old_set);
  const bool ok = write_fully(fd, data, size);
  if (!ok) {
    timespec zero{0, 0};
    (void)::sigtimedwait(&pipe_set, nullptr, &zero);
  }
  ::pthread_sigmask(SIG_SETMASK, &old_set, nullptr);
  return ok;
}

/// Block until `fd` is readable or hung up, at most `remaining_ms`.
/// Returns poll's verdict: >0 ready, 0 timed out, <0 error.
int wait_readable(int fd, double remaining_ms) {
  pollfd pfd{fd, POLLIN, 0};
  const int timeout_ms = static_cast<int>(
      std::clamp(std::ceil(remaining_ms), 0.0, static_cast<double>(INT_MAX)));
  return static_cast<int>(retry_eintr(
      [&] { return static_cast<ssize_t>(::poll(&pfd, 1, timeout_ms)); }));
}

}  // namespace

bool address_space_limit_supported() {
  // ASan reserves terabytes of shadow address space and TSan's runtime
  // aborts (instead of returning nullptr) on allocation failure, so under
  // either sanitizer RLIMIT_AS would kill every child at startup or turn
  // clean OOM exits into uncatchable runtime aborts.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return false;
#else
  return true;
#endif
#else
  return true;
#endif
}

FrameRead read_pool_message(int fd, const std::array<std::uint8_t, 8>& magic,
                            Bytes& message, double deadline_ms) {
  const Stopwatch clock;
  std::size_t want = kPoolMessageHeader;
  message.clear();
  for (;;) {
    if (deadline_ms > 0.0) {
      const double remaining = deadline_ms - clock.elapsed_ms();
      if (remaining <= 0.0) return FrameRead::kTimeout;
      const int ready = wait_readable(fd, remaining);
      if (ready < 0) return FrameRead::kIoError;
      if (ready == 0) return FrameRead::kTimeout;
    }
    // Grow by at most one chunk per read: a length header is only the
    // writer's claim, so buffer what arrives rather than what it announces.
    const std::size_t have = message.size();
    message.resize(std::min(want, have + kReadChunk));
    const ssize_t n = retry_eintr([&] {
      return ::read(fd, message.data() + have, message.size() - have);
    });
    message.resize(have + static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
    if (n < 0) return FrameRead::kIoError;
    if (n == 0) return have == 0 ? FrameRead::kEof : FrameRead::kTorn;
    if (message.size() < want) continue;
    if (want == kPoolMessageHeader) {
      if (!std::equal(magic.begin(), magic.end(), message.begin())) {
        return FrameRead::kDesync;
      }
      const std::uint32_t payload =
          static_cast<std::uint32_t>(message[8]) |
          (static_cast<std::uint32_t>(message[9]) << 8) |
          (static_cast<std::uint32_t>(message[10]) << 16) |
          (static_cast<std::uint32_t>(message[11]) << 24);
      if (payload > kPoolMaxMessageBytes) return FrameRead::kDesync;
      want += payload;
      if (payload > 0) continue;
    }
    return FrameRead::kMessage;
  }
}

Result<PoolWorker> PoolWorker::spawn(const ServeLoop& serve,
                                     const WorkerLimits& limits) {
  install_fork_handlers();
  int request[2] = {-1, -1};
  int response[2] = {-1, -1};
  if (::pipe(request) != 0) {
    return Result<PoolWorker>::failure(std::string("pool: pipe failed: ") +
                                       std::strerror(errno));
  }
  if (::pipe(response) != 0) {
    const std::string message =
        std::string("pool: pipe failed: ") + std::strerror(errno);
    ::close(request[0]);
    ::close(request[1]);
    return Result<PoolWorker>::failure(message);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    const std::string message =
        std::string("pool: fork failed: ") + std::strerror(errno);
    ::close(request[0]);
    ::close(request[1]);
    ::close(response[0]);
    ::close(response[1]);
    return Result<PoolWorker>::failure(message);
  }
  if (pid == 0) {
    if (__gcov_reset != nullptr) __gcov_reset();
    close_inherited_fds(request[0], response[1]);
    child_setup(limits);
    int code = kChildExceptionExitCode;
    try {
      code = serve(request[0], response[1]);
    } catch (...) {
      code = kChildExceptionExitCode;
    }
    if (__gcov_dump != nullptr) __gcov_dump();
    ::_exit(code);
  }
  ::close(request[0]);
  ::close(response[1]);
  return PoolWorker(static_cast<int>(pid), request[1], response[0],
                    limits.wall_deadline_ms);
}

PoolWorker::PoolWorker(PoolWorker&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      request_fd_(std::exchange(other.request_fd_, -1)),
      response_fd_(std::exchange(other.response_fd_, -1)),
      deadline_ms_(other.deadline_ms_) {}

PoolWorker::~PoolWorker() { kill(); }

void PoolWorker::close_pipes() {
  if (request_fd_ >= 0) {
    ::close(request_fd_);
    request_fd_ = -1;
  }
  if (response_fd_ >= 0) {
    ::close(response_fd_);
    response_fd_ = -1;
  }
}

void PoolWorker::reap(PoolRpcResult* result) {
  if (pid_ <= 0) return;
  int status = 0;
  const ssize_t reaped = retry_eintr(
      [&] { return static_cast<ssize_t>(::waitpid(pid_, &status, 0)); });
  pid_ = -1;
  if (result == nullptr || reaped < 0) return;
  if (WIFEXITED(status)) {
    result->exited = true;
    result->exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result->term_signal = WTERMSIG(status);
  }
}

void PoolWorker::kill_and_reap(PoolRpcResult* result) {
  close_pipes();
  if (pid_ > 0) (void)::kill(pid_, SIGKILL);
  reap(result);
}

void PoolWorker::kill() { kill_and_reap(nullptr); }

void PoolWorker::shutdown() {
  if (pid_ <= 0) {
    close_pipes();
    return;
  }
  // Closing the request pipe is the shutdown signal: the serve loop reads
  // EOF and _exits(0), and its exit hangs up the response pipe (the child
  // holds its only write end). Wait for that hang-up, not on a sleep loop,
  // then reap; a child that lingers past the grace period is killed.
  if (request_fd_ >= 0) {
    ::close(request_fd_);
    request_fd_ = -1;
  }
  const Stopwatch clock;
  bool hung_up = false;
  while (!hung_up) {
    const double remaining = kShutdownGraceMs - clock.elapsed_ms();
    if (remaining <= 0.0 || wait_readable(response_fd_, remaining) <= 0) break;
    std::uint8_t discard[512];
    const ssize_t n = retry_eintr(
        [&] { return ::read(response_fd_, discard, sizeof discard); });
    if (n < 0) break;
    hung_up = n == 0;
  }
  if (!hung_up) (void)::kill(pid_, SIGKILL);
  reap(nullptr);
  close_pipes();
}

PoolRpcResult PoolWorker::call(const Bytes& request,
                               const std::array<std::uint8_t, 8>& magic) {
  PoolRpcResult result;
  if (pid_ <= 0 || request_fd_ < 0 || response_fd_ < 0) {
    result.error = "pool: worker is not running";
    return result;
  }

  if (!write_nosigpipe(request_fd_, request.data(), request.size())) {
    // The worker died between calls (EPIPE) or the pipe broke: surface the
    // exit facts so the caller classifies it like any other worker death.
    const std::string io_error =
        std::string("pool: request write failed: ") + std::strerror(errno);
    close_pipes();
    reap(&result);
    result.status = PoolRpcResult::Status::kWorkerExit;
    result.error = io_error;
    return result;
  }

  switch (read_pool_message(response_fd_, magic, result.message,
                            deadline_ms_)) {
    case FrameRead::kMessage:
      result.status = PoolRpcResult::Status::kOk;
      return result;
    case FrameRead::kEof:
    case FrameRead::kTorn:
      // The worker died mid-app. Reap and hand the raw facts to the caller
      // for crash/OOM classification.
      close_pipes();
      reap(&result);
      result.status = PoolRpcResult::Status::kWorkerExit;
      result.error = "pool: worker exited before shipping a response";
      return result;
    case FrameRead::kTimeout:
      kill_and_reap(&result);
      result.status = PoolRpcResult::Status::kTimeout;
      return result;
    case FrameRead::kDesync:
      kill_and_reap(&result);
      result.error = "pool: response stream desynchronized";
      return result;
    case FrameRead::kIoError:
      break;
  }
  const std::string io_error =
      std::string("pool: response read failed: ") + std::strerror(errno);
  kill_and_reap(&result);
  result.error = io_error;
  return result;
}

}  // namespace dydroid::support
