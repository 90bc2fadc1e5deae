// Sandbox worker-pool suite (docs/ISOLATION.md): the worker subprocess's
// child-side contract (exit codes, limits, signal and deadline deaths,
// teardown), support::PoolWorker RPC facts (framed round trips, graceful
// EOF shutdown, deadline kills, death detection), the request/response
// codec, and the CorpusRunner integration — pool mode must reproduce
// thread-mode reports byte-for-byte at any worker count (faults on and
// off, recycling on and off), classify worker deaths into fates,
// re-dispatch the in-flight app of an externally killed worker, survive
// forks racing the trace registries, and interoperate with the journal
// and the result cache. Batched dispatch (several apps per round trip)
// must keep every fate with the app that caused it.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "appgen/corpus.hpp"
#include "appgen/generator.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/sandbox.hpp"
#include "support/fault.hpp"
#include "support/io.hpp"
#include "support/journal.hpp"
#include "support/trace.hpp"
#include "support/worker_pool.hpp"
#include "hook_stage.hpp"

namespace dydroid::driver {
namespace {

/// The seed the runner gives the first job of a default-configured run.
constexpr std::uint64_t kFirstAppSeed = seed_for_app(kDefaultSeedBase, 0);

appgen::Corpus small_corpus(double scale = 0.002) {
  appgen::CorpusConfig config;
  config.scale = scale;
  return appgen::generate_corpus(config);
}

std::vector<std::string> report_jsons(const CorpusResult& result) {
  std::vector<std::string> out;
  out.reserve(result.outcomes.size());
  for (const auto& outcome : result.outcomes) {
    out.push_back(core::report_to_json(outcome.report));
  }
  return out;
}

/// Jobs replicating one generated app N times. A test makes one of them
/// misbehave (hang, kill itself) inside the pooled worker through a
/// test::hooked_pipeline aimed at its seed.
struct OneAppJobs {
  appgen::GeneratedApp app;
  std::vector<AppJob> jobs;
};

OneAppJobs replicated_jobs(std::size_t count, std::uint64_t rng_seed = 23) {
  OneAppJobs out;
  appgen::AppSpec spec;
  spec.package = "com.pool.app";
  spec.category = "Tools";
  spec.ad_sdk = true;
  support::Rng rng(rng_seed);
  out.app = appgen::build_app(spec, rng);
  out.jobs.resize(count);
  for (auto& job : out.jobs) {
    job.apk = out.app.apk;
    job.scenario = out.app.scenario;
  }
  return out;
}

class TempPath {
 public:
  explicit TempPath(const std::string& tag) {
    path_ = testing::TempDir() + "dydroid_pool_" + tag + "_" +
            std::to_string(::getpid());
    std::remove(path_.c_str());
  }
  ~TempPath() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr std::array<std::uint8_t, 8> kEchoMagic = {'D', 'Y', 'T', 'E',
                                                    'S', 'T', 'R', '1'};

/// A serve loop that echoes every framed message back verbatim.
int echo_serve(int request_fd, int response_fd) {
  support::Bytes message;
  for (;;) {
    switch (support::read_pool_message(request_fd, kEchoMagic, message)) {
      case support::FrameRead::kEof: return 0;
      case support::FrameRead::kMessage: break;
      default: return 3;
    }
    if (!support::write_fully(response_fd, message.data(), message.size())) {
      return 3;
    }
  }
}

support::Bytes framed(std::span<const std::uint8_t> payload) {
  support::ByteWriter stream;
  stream.raw(kEchoMagic);
  support::encode_frame(stream, payload);
  return stream.take();
}

support::Bytes framed_echo_message(std::string_view text) {
  return framed(std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                          text.size()));
}

/// A serve loop that never returns on its own.
int spin_serve(int, int) {
  for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

// ---------------------------------------------------------------------------
// The worker subprocess: child-side contract.
// ---------------------------------------------------------------------------

TEST(Subprocess, CleanChildShipsPipeBytesAndExitCode) {
  // A loop that ships one response and returns 0: the bytes arrive intact,
  // and the next call reports the clean exit.
  auto spawned = support::PoolWorker::spawn(
      [](int request_fd, int response_fd) {
        support::Bytes message;
        if (support::read_pool_message(request_fd, kEchoMagic, message) !=
            support::FrameRead::kMessage) {
          return 3;
        }
        return support::write_fully(response_fd, message.data(),
                                    message.size())
                   ? 0
                   : 3;
      },
      {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  EXPECT_GT(worker.pid(), 0);
  const auto request = framed_echo_message(std::string("sbox\0\xff", 6));
  const auto shipped = worker.call(request, kEchoMagic);
  ASSERT_EQ(shipped.status, support::PoolRpcResult::Status::kOk)
      << shipped.error;
  EXPECT_EQ(shipped.message, request);
  const auto exited = worker.call(framed_echo_message("again"), kEchoMagic);
  EXPECT_EQ(exited.status, support::PoolRpcResult::Status::kWorkerExit);
  EXPECT_TRUE(exited.exited);
  EXPECT_EQ(exited.exit_code, 0);
  EXPECT_EQ(exited.term_signal, 0);
  EXPECT_FALSE(worker.alive());
}

TEST(Subprocess, LargePipePayloadDrainsWithoutDeadlock) {
  // A response larger than any pipe buffer (64 KiB default): the parent
  // must keep reading while the child is still writing.
  constexpr std::size_t kSize = 1 << 20;
  auto spawned = support::PoolWorker::spawn(
      [](int request_fd, int response_fd) {
        support::Bytes message;
        if (support::read_pool_message(request_fd, kEchoMagic, message) !=
            support::FrameRead::kMessage) {
          return 3;
        }
        support::Bytes big(kSize);
        for (std::size_t i = 0; i < big.size(); ++i) {
          big[i] = static_cast<std::uint8_t>(i * 31u);
        }
        const support::Bytes response = framed(big);
        return support::write_fully(response_fd, response.data(),
                                    response.size())
                   ? 0
                   : 3;
      },
      {.wall_deadline_ms = 30000.0});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto result = worker.call(framed_echo_message("big"), kEchoMagic);
  ASSERT_EQ(result.status, support::PoolRpcResult::Status::kOk)
      << result.error;
  ASSERT_EQ(result.message.size(), support::kPoolMessageHeader + kSize);
  for (std::size_t i = 0; i < kSize; i += 4099) {
    ASSERT_EQ(result.message[support::kPoolMessageHeader + i],
              static_cast<std::uint8_t>(i * 31u));
  }
}

TEST(Subprocess, BodyReturnValueBecomesExitCode) {
  auto spawned = support::PoolWorker::spawn([](int, int) { return 7; }, {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto result = worker.call(framed_echo_message("x"), kEchoMagic);
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kWorkerExit);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, 7);
}

TEST(Subprocess, EscapedExceptionExitsWithReservedCode) {
  auto spawned = support::PoolWorker::spawn(
      [](int, int) -> int { throw std::runtime_error("child boom"); }, {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto result = worker.call(framed_echo_message("x"), kEchoMagic);
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kWorkerExit);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, support::kChildExceptionExitCode);
}

TEST(Subprocess, SignalDeathIsReportedNotAbsorbed) {
  // The worker dies *between* calls: the next request write meets a closed
  // pipe (EPIPE, never a SIGPIPE in the supervisor) and the death is
  // reported with its signal.
  auto spawned = support::PoolWorker::spawn(
      [](int, int) -> int { std::abort(); }, {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  siginfo_t info{};
  ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(worker.pid()), &info,
                     WEXITED | WNOWAIT),
            0);
  const auto result = worker.call(framed_echo_message("x"), kEchoMagic);
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kWorkerExit);
  EXPECT_FALSE(result.exited);
  EXPECT_EQ(result.term_signal, SIGABRT);
}

TEST(Subprocess, InfiniteLoopIsDeadlineKilledWithinBudget) {
  // The spawn's wall deadline bounds every call.
  support::WorkerLimits limits;
  limits.wall_deadline_ms = 250.0;
  auto spawned = support::PoolWorker::spawn(spin_serve, limits);
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto start = std::chrono::steady_clock::now();
  const auto result = worker.call(framed_echo_message("x"), kEchoMagic);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kTimeout);
  EXPECT_FALSE(result.exited);
  EXPECT_EQ(result.term_signal, SIGKILL);
  // The kill budget, not the child's infinite loop, bounds the wait.
  EXPECT_LT(elapsed_ms, 10000);
}

TEST(Subprocess, MemoryHogExitsWithReservedOomCode) {
  if (!support::address_space_limit_supported()) {
    GTEST_SKIP() << "RLIMIT_AS unsupported under this sanitizer";
  }
  support::WorkerLimits limits;
  limits.max_memory_bytes = 3ull << 30;  // generous vs. the parent image
  auto spawned = support::PoolWorker::spawn(
      [](int, int) -> int {
        std::vector<std::byte*> hog;
        for (;;) hog.push_back(new std::byte[64 << 20]);  // until new fails
      },
      limits);
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto result = worker.call(framed_echo_message("x"), kEchoMagic);
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kWorkerExit);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.exit_code, support::kOomExitCode);
}

TEST(Subprocess, DestructorKillsAndReapsUnwaitedChild) {
  int pid = -1;
  {
    auto spawned = support::PoolWorker::spawn(spin_serve, {});
    ASSERT_TRUE(spawned.ok()) << spawned.error();
    pid = std::move(spawned).take().pid();
  }  // destructor: SIGKILL + reap
  EXPECT_EQ(::kill(pid, 0), -1);
  EXPECT_EQ(errno, ESRCH);
}

// ---------------------------------------------------------------------------
// support::PoolWorker: raw RPC supervision facts.
// ---------------------------------------------------------------------------

TEST(PoolWorker, FramedRequestsRoundTripAndCountServedApps) {
  auto spawned = support::PoolWorker::spawn(echo_serve, {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  EXPECT_GT(worker.pid(), 0);
  EXPECT_TRUE(worker.alive());

  for (int i = 0; i < 5; ++i) {
    const auto request = framed_echo_message("ping-" + std::to_string(i));
    const auto result = worker.call(request, kEchoMagic);
    ASSERT_EQ(result.status, support::PoolRpcResult::Status::kOk)
        << result.error;
    EXPECT_EQ(result.message, request);  // one long-lived child served all 5
  }
  worker.shutdown();
  EXPECT_FALSE(worker.alive());
}

TEST(PoolWorker, ShutdownIsGracefulEofNotAKill) {
  auto spawned = support::PoolWorker::spawn(echo_serve, {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const pid_t pid = worker.pid();
  worker.shutdown();  // closes the request pipe; the loop sees EOF, exits 0
  EXPECT_FALSE(worker.alive());
  // The pid is fully reaped — no zombie left behind.
  EXPECT_EQ(::kill(pid, 0), -1);
}

TEST(PoolWorker, SiblingWorkerDoesNotHoldAnotherWorkersRequestPipe) {
  // The second child is forked while the first worker's parent-side pipe
  // ends are open. Unless it closes them, it keeps the first worker's
  // request pipe writable, the first never reads EOF, and shutdown() has
  // to SIGKILL it after the grace period.
  TempPath marker("eof_marker");
  auto first = support::PoolWorker::spawn(
      [path = marker.path()](int request_fd, int response_fd) {
        const int code = echo_serve(request_fd, response_fd);
        // Reached only when the loop returns — on EOF, with code 0.
        if (code == 0) std::ofstream(path) << "eof";
        return code;
      },
      {});
  ASSERT_TRUE(first.ok()) << first.error();
  auto second = support::PoolWorker::spawn(echo_serve, {});
  ASSERT_TRUE(second.ok()) << second.error();

  first.value().shutdown();
  EXPECT_TRUE(std::filesystem::exists(marker.path()))
      << "the first worker never saw EOF: a sibling holds its request pipe";
  second.value().shutdown();
}

TEST(PoolWorker, DyingWorkerIsDetectedAndClassifiedBySignal) {
  auto spawned = support::PoolWorker::spawn(
      [](int request_fd, int) {
        std::uint8_t header[support::kPoolMessageHeader];
        (void)support::read_exact(request_fd, header, sizeof header);
        ::raise(SIGABRT);  // die mid-request, before any response bytes
        return 0;
      },
      {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto result = worker.call(framed_echo_message("doomed"), kEchoMagic);
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kWorkerExit);
  EXPECT_FALSE(result.exited);
  EXPECT_EQ(result.term_signal, SIGABRT);
  EXPECT_FALSE(worker.alive());
}

TEST(PoolWorker, HangingWorkerIsDeadlineKilled) {
  auto spawned =
      support::PoolWorker::spawn(spin_serve, {.wall_deadline_ms = 300.0});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto start = std::chrono::steady_clock::now();
  const auto result = worker.call(framed_echo_message("stuck"), kEchoMagic);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kTimeout);
  EXPECT_FALSE(worker.alive());  // SIGKILLed and reaped by the deadline path
  EXPECT_LT(elapsed_ms, 15000);
}

TEST(PoolWorker, GarbageResponseKillsTheWorker) {
  auto spawned = support::PoolWorker::spawn(
      [](int request_fd, int response_fd) {
        std::uint8_t header[support::kPoolMessageHeader];
        (void)support::read_exact(request_fd, header, sizeof header);
        const char junk[] = "not a framed message at all............";
        (void)support::write_fully(
            response_fd, reinterpret_cast<const std::uint8_t*>(junk),
            sizeof junk);
        for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return 0;  // unreachable
      },
      {});
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  auto worker = std::move(spawned).take();
  const auto result = worker.call(framed_echo_message("x"), kEchoMagic);
  EXPECT_EQ(result.status, support::PoolRpcResult::Status::kError);
  EXPECT_FALSE(worker.alive());  // a desynchronized stream retires the worker
}

// ---------------------------------------------------------------------------
// Request/response codec.
// ---------------------------------------------------------------------------

/// The framed request carrying `request` alone.
support::Bytes one_request(const PoolRequest& request) {
  return encode_pool_request(std::span(&request, 1));
}

/// The framed response carrying one finished attempt.
support::Bytes one_response(std::size_t app_index, const AppOutcome& outcome) {
  PoolResponseEncoder encoder;
  encoder.add(app_index, outcome);
  return encoder.finish();
}

TEST(PoolCodec, RequestRoundTripsAllFields) {
  PoolRequest request;
  request.app_index = 0x1122334455ull;
  request.attempt = 3;
  request.seed = 0xDEADBEEFCAFEull;
  request.worker = 7;
  request.crash_child = true;
  request.retire = true;
  const auto encoded = one_request(request);
  const auto decoded = decode_pool_requests(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  ASSERT_EQ(decoded.value().size(), 1u);
  EXPECT_EQ(decoded.value()[0].app_index, request.app_index);
  EXPECT_EQ(decoded.value()[0].attempt, request.attempt);
  EXPECT_EQ(decoded.value()[0].seed, request.seed);
  EXPECT_EQ(decoded.value()[0].worker, request.worker);
  EXPECT_TRUE(decoded.value()[0].crash_child);
  EXPECT_TRUE(decoded.value()[0].retire);
}

TEST(PoolCodec, DamagedRequestsFailCleanly) {
  PoolRequest request;
  request.app_index = 12;
  request.seed = 34;
  auto encoded = one_request(request);
  // Truncations at every boundary: never throw, never misdecode.
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    const auto truncated =
        support::Bytes(encoded.begin(), encoded.begin() + cut);
    EXPECT_FALSE(decode_pool_requests(truncated).ok()) << "cut=" << cut;
  }
  // A flipped payload byte must fail the CRC.
  encoded[encoded.size() - 1] ^= 0x40;
  EXPECT_FALSE(decode_pool_requests(encoded).ok());
}

TEST(PoolCodec, ResponseRoundTripsAnOutcome) {
  AppOutcome outcome;
  outcome.report.package = "com.pool.codec";
  outcome.report.status = core::DynamicStatus::kExercised;
  outcome.seed = 0xFEED5EED;
  outcome.attempts = 2;
  const auto encoded = one_response(41, outcome);
  const auto decoded = decode_pool_responses(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  ASSERT_EQ(decoded.value().size(), 1u);
  EXPECT_EQ(decoded.value()[0].index, 41u);
  EXPECT_EQ(decoded.value()[0].outcome.seed, outcome.seed);
  EXPECT_EQ(core::report_to_json(decoded.value()[0].outcome.report),
            core::report_to_json(outcome.report));
  // Requests and responses share the magic but not the payload: a request
  // is never mistaken for a response.
  EXPECT_FALSE(decode_pool_responses(one_request(PoolRequest{})).ok());
}

TEST(PoolCodec, BatchesRoundTripInDispatchOrder) {
  std::vector<PoolRequest> batch(3);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    batch[k].app_index = 100 + k;
    batch[k].seed = 0xBE9C0000ull + k;
    batch[k].worker = 2;
  }
  batch.back().retire = true;
  const auto requests = decode_pool_requests(encode_pool_request(batch));
  ASSERT_TRUE(requests.ok()) << requests.error();
  ASSERT_EQ(requests.value().size(), 3u);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    EXPECT_EQ(requests.value()[k].app_index, batch[k].app_index);
    EXPECT_EQ(requests.value()[k].seed, batch[k].seed);
    EXPECT_EQ(requests.value()[k].worker, 2u);
    EXPECT_EQ(requests.value()[k].retire, k == 2);
  }
  PoolResponseEncoder encoder;
  for (std::size_t k = 0; k < 3; ++k) {
    AppOutcome outcome;
    outcome.report.package = "com.pool.batch" + std::to_string(k);
    outcome.seed = batch[k].seed;
    outcome.wall_ms = 1.5 * static_cast<double>(k);
    encoder.add(batch[k].app_index, outcome);
  }
  const support::Bytes response = encoder.finish();
  const auto outcomes = decode_pool_responses(response);
  ASSERT_TRUE(outcomes.ok()) << outcomes.error();
  ASSERT_EQ(outcomes.value().size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(outcomes.value()[k].index, batch[k].app_index);
    EXPECT_EQ(outcomes.value()[k].outcome.seed, batch[k].seed);
    EXPECT_EQ(outcomes.value()[k].outcome.report.package,
              "com.pool.batch" + std::to_string(k));
    EXPECT_EQ(outcomes.value()[k].outcome.wall_ms, 1.5 * static_cast<double>(k));
  }
  // The encoder is empty again after finish(): the next message is the
  // next batch only.
  AppOutcome single;
  single.seed = 7;
  encoder.add(9, single);
  const auto next = decode_pool_responses(encoder.finish());
  ASSERT_TRUE(next.ok()) << next.error();
  ASSERT_EQ(next.value().size(), 1u);
  EXPECT_EQ(next.value()[0].index, 9u);
  // Empty batches are not messages of the protocol.
  EXPECT_FALSE(decode_pool_requests(encode_pool_request(
                                        std::span<const PoolRequest>{}))
                   .ok());
  EXPECT_FALSE(decode_pool_responses(encoder.finish()).ok());
}

// ---------------------------------------------------------------------------
// Golden equivalence: pool mode reproduces thread mode byte-for-byte.
// ---------------------------------------------------------------------------

TEST(WorkerPool, PoolModeMatchesThreadModeAtAnyWorkerCount) {
  const auto corpus = small_corpus();
  ASSERT_GT(corpus.apps.size(), 10u);
  const core::DyDroid pipeline{core::PipelineOptions{}};

  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, thread_config).run(corpus);
  const auto golden_json = report_jsons(golden);

  for (const std::size_t jobs : {1u, 2u, 8u}) {
    RunnerConfig config;
    config.jobs = jobs;
    config.isolation_mode = IsolationMode::kPool;
    const auto pooled = CorpusRunner(pipeline, config).run(corpus);
    ASSERT_EQ(pooled.outcomes.size(), corpus.apps.size());
    const auto pooled_json = report_jsons(pooled);
    for (std::size_t i = 0; i < golden_json.size(); ++i) {
      EXPECT_EQ(pooled_json[i], golden_json[i])
          << "app " << i << " at jobs=" << jobs;
      EXPECT_EQ(pooled.outcomes[i].sandbox_fate, SandboxFate::kNone);
      EXPECT_EQ(pooled.outcomes[i].seed, golden.outcomes[i].seed);
      EXPECT_EQ(pooled.outcomes[i].attempts, golden.outcomes[i].attempts);
    }
    EXPECT_EQ(pooled.stats.crashed, golden.stats.crashed);
    EXPECT_EQ(pooled.stats.exercised, golden.stats.exercised);
    EXPECT_EQ(pooled.stats.intercepted, golden.stats.intercepted);
    EXPECT_EQ(pooled.stats.sandbox_crashed, 0u);
  }
}

TEST(WorkerPool, PoolModeMatchesThreadModeUnderFaultInjection) {
  const auto corpus = small_corpus();
  const auto plan_result = support::FaultPlan::parse("device.install=p:0.3");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  options.retry_on_crash = true;
  const core::DyDroid pipeline(std::move(options));

  RunnerConfig thread_config;
  thread_config.jobs = 2;
  const auto golden = CorpusRunner(pipeline, thread_config).run(corpus);

  RunnerConfig config;
  config.jobs = 2;
  config.isolation_mode = IsolationMode::kPool;
  const auto pooled = CorpusRunner(pipeline, config).run(corpus);

  // The worker runs the identical per-app fault session, so injected
  // pipeline crashes, retries and quarantines reproduce exactly.
  const auto golden_json = report_jsons(golden);
  const auto pooled_json = report_jsons(pooled);
  ASSERT_EQ(pooled_json.size(), golden_json.size());
  for (std::size_t i = 0; i < golden_json.size(); ++i) {
    EXPECT_EQ(pooled_json[i], golden_json[i]) << "app " << i;
    EXPECT_EQ(pooled.outcomes[i].attempts, golden.outcomes[i].attempts);
    EXPECT_EQ(pooled.outcomes[i].quarantined, golden.outcomes[i].quarantined);
    EXPECT_EQ(pooled.outcomes[i].timed_out, golden.outcomes[i].timed_out);
  }
}

TEST(WorkerPool, PoolModeMatchesForkModeUnderSandboxCrashInjection) {
  // Fork mode (`--isolate`: the pool recycling after every app, a fresh
  // process per attempt) and the persistent pool must agree app by
  // app even when the sandbox *itself* is under attack: the injected kill
  // decision is drawn in the supervisor from the same per-app session in
  // both, and the synthesized crash_message strings are identical — which
  // is what keeps journals from the two configurations mutually
  // replayable.
  const auto corpus = small_corpus();
  const auto plan_result = support::FaultPlan::parse("sandbox.crash=p:0.4");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));

  RunnerConfig fork_config;
  fork_config.jobs = 2;
  fork_config.isolation_mode = IsolationMode::kPool;
  fork_config.pool_recycle_apps = 1;
  const auto forked = CorpusRunner(pipeline, fork_config).run(corpus);
  ASSERT_GT(forked.stats.sandbox_crashed, 0u);
  ASSERT_LT(forked.stats.sandbox_crashed, corpus.apps.size());

  RunnerConfig pool_config;
  pool_config.jobs = 2;
  pool_config.isolation_mode = IsolationMode::kPool;
  const auto pooled = CorpusRunner(pipeline, pool_config).run(corpus);

  const auto forked_json = report_jsons(forked);
  const auto pooled_json = report_jsons(pooled);
  ASSERT_EQ(pooled_json.size(), forked_json.size());
  for (std::size_t i = 0; i < forked_json.size(); ++i) {
    EXPECT_EQ(pooled_json[i], forked_json[i]) << "app " << i;
    EXPECT_EQ(pooled.outcomes[i].sandbox_fate, forked.outcomes[i].sandbox_fate);
    EXPECT_EQ(pooled.outcomes[i].fatal_signal, forked.outcomes[i].fatal_signal);
    EXPECT_EQ(pooled.outcomes[i].quarantined, forked.outcomes[i].quarantined);
  }
  EXPECT_EQ(pooled.stats.sandbox_crashed, forked.stats.sandbox_crashed);
  EXPECT_EQ(pooled.stats.quarantined, forked.stats.quarantined);
}

// ---------------------------------------------------------------------------
// Classification: a worker death is an app fate, not a campaign fate.
// ---------------------------------------------------------------------------

TEST(WorkerPool, InjectedCrashClassifiesAndPoolKeepsServing) {
  // Each app draws the kill decision from its own per-seed fault session,
  // so p:0.5 deterministically fates *some* of the replicas: the fated
  // ones abort their worker (classified SIGABRT, quarantined), and a
  // fresh worker serves the spared ones with golden-identical reports —
  // one poisoned app never takes the pool down.
  auto fixture = replicated_jobs(6);
  const auto plan_result = support::FaultPlan::parse("sandbox.crash=p:0.5");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));

  const core::DyDroid clean{core::PipelineOptions{}};
  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(clean, thread_config).run(fixture.jobs);

  RunnerConfig config;
  config.jobs = 1;
  config.isolation_mode = IsolationMode::kPool;
  const auto result = CorpusRunner(pipeline, config).run(fixture.jobs);

  ASSERT_EQ(result.outcomes.size(), 6u);
  std::size_t fated = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto& outcome = result.outcomes[i];
    if (outcome.sandbox_fate == SandboxFate::kCrashed) {
      ++fated;
      EXPECT_EQ(outcome.fatal_signal, SIGABRT);
      EXPECT_TRUE(outcome.quarantined);
      EXPECT_EQ(outcome.report.status, core::DynamicStatus::kCrash);
      EXPECT_NE(outcome.report.crash_message.find("signal"),
                std::string::npos);
    } else {
      EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kNone);
      EXPECT_EQ(core::report_to_json(outcome.report),
                core::report_to_json(golden.outcomes[i].report))
          << "app " << i;
    }
  }
  ASSERT_GT(fated, 0u);   // the injection actually hit...
  ASSERT_LT(fated, 6u);   // ...and spared apps for the recovery claim
  EXPECT_EQ(result.stats.sandbox_crashed, fated);
  EXPECT_EQ(result.stats.crashed, fated);
}

TEST(WorkerPool, HangingAppIsDeadlineKilledAndPoolRecovers) {
  auto fixture = replicated_jobs(2);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, thread_config).run(fixture.jobs);

  const auto hanging = test::hooked_pipeline(kFirstAppSeed, [] {
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  RunnerConfig config;
  config.jobs = 1;
  config.isolation_mode = IsolationMode::kPool;
  config.sandbox_deadline_ms = 300.0;
  const auto result = CorpusRunner(hanging, config).run(fixture.jobs);

  const auto& hung = result.outcomes[0];
  EXPECT_EQ(hung.sandbox_fate, SandboxFate::kTimedOut);
  EXPECT_EQ(hung.fatal_signal, SIGKILL);
  EXPECT_TRUE(hung.timed_out);
  EXPECT_TRUE(hung.quarantined);
  EXPECT_LT(hung.wall_ms, 15000.0);
  // The replacement worker serves the next app cleanly.
  EXPECT_EQ(result.outcomes[1].sandbox_fate, SandboxFate::kNone);
  EXPECT_EQ(core::report_to_json(result.outcomes[1].report),
            core::report_to_json(golden.outcomes[1].report));
  EXPECT_EQ(result.stats.killed_timeout, 1u);
}

TEST(WorkerPool, MemoryExplodingAppIsKilledOomAndQuarantined) {
  if (!support::address_space_limit_supported()) {
    GTEST_SKIP() << "RLIMIT_AS unsupported under this sanitizer";
  }
  auto fixture = replicated_jobs(1);
  const auto pipeline = test::hooked_pipeline(kFirstAppSeed, [] {
    std::vector<std::byte*> hog;
    for (;;) hog.push_back(new std::byte[64 << 20]);  // runs in the worker
  });

  RunnerConfig config;
  config.jobs = 1;
  config.isolation_mode = IsolationMode::kPool;
  config.sandbox_mem_limit_bytes = 3ull << 30;
  const auto result = CorpusRunner(pipeline, config).run(fixture.jobs);

  const auto& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kOomKilled);
  EXPECT_TRUE(outcome.quarantined);
  EXPECT_EQ(outcome.report.status, core::DynamicStatus::kCrash);
  EXPECT_EQ(result.stats.killed_oom, 1u);
}

// ---------------------------------------------------------------------------
// External SIGKILL: the in-flight app re-dispatches to a fresh worker.
// ---------------------------------------------------------------------------

TEST(WorkerPool, ExternallyKilledWorkerRedispatchesInFlightApp) {
  auto fixture = replicated_jobs(1);
  const core::DyDroid pipeline{core::PipelineOptions{}};

  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, thread_config).run(fixture.jobs);

  // First execution SIGKILLs its own worker mid-app (indistinguishable
  // from an external kill); the marker makes the re-dispatched run clean.
  TempPath marker("redispatch");
  const auto killing = test::hooked_pipeline(
      kFirstAppSeed, [path = marker.path()] {
        if (!std::filesystem::exists(path)) {
          std::ofstream(path) << "killed once";
          ::raise(SIGKILL);
        }
      });

  RunnerConfig config;
  config.jobs = 1;
  config.isolation_mode = IsolationMode::kPool;
  const auto result = CorpusRunner(killing, config).run(fixture.jobs);

  EXPECT_TRUE(std::filesystem::exists(marker.path()));  // the kill happened
  const auto& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kNone);
  EXPECT_FALSE(outcome.quarantined);
  EXPECT_EQ(core::report_to_json(outcome.report),
            core::report_to_json(golden.outcomes[0].report));
  EXPECT_EQ(result.stats.killed_oom, 0u);
  EXPECT_EQ(result.stats.sandbox_crashed, 0u);
}

TEST(WorkerPool, RepeatedExternalSigkillEscalatesToOomClassification) {
  auto fixture = replicated_jobs(1);
  const auto pipeline =
      test::hooked_pipeline(kFirstAppSeed, [] { ::raise(SIGKILL); });

  RunnerConfig config;
  config.jobs = 1;
  config.isolation_mode = IsolationMode::kPool;
  const auto result = CorpusRunner(pipeline, config).run(fixture.jobs);

  const auto& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kOomKilled);
  EXPECT_EQ(outcome.fatal_signal, SIGKILL);
  EXPECT_TRUE(outcome.quarantined);
  EXPECT_EQ(result.stats.killed_oom, 1u);
  EXPECT_EQ(result.stats.crashed, 1u);
}

// ---------------------------------------------------------------------------
// Recycling: between-attempt worker retirement never changes a report.
// ---------------------------------------------------------------------------

TEST(WorkerPool, RecycleAfterKAppsIsInvisibleInReports) {
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};

  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, thread_config).run(corpus);
  const auto golden_json = report_jsons(golden);

  support::set_metrics_enabled(true);
  support::metrics_reset();
  RunnerConfig config;
  config.jobs = 2;
  config.isolation_mode = IsolationMode::kPool;
  config.pool_recycle_apps = 3;  // retire every worker every 3 apps
  const auto recycled = CorpusRunner(pipeline, config).run(corpus);
  support::set_metrics_enabled(false);
  const auto metrics = support::metrics_snapshot();
  support::metrics_reset();

  const auto recycled_json = report_jsons(recycled);
  ASSERT_EQ(recycled_json.size(), golden_json.size());
  for (std::size_t i = 0; i < golden_json.size(); ++i) {
    EXPECT_EQ(recycled_json[i], golden_json[i]) << "app " << i;
  }
  // The knob actually did something: with ~dozens of apps per worker and
  // K=3, many recycles (and therefore many spawns) must have happened.
  const auto* recycles = metrics.counter("sandbox.pool.recycled");
  const auto* spawns = metrics.counter("sandbox.pool.spawned");
  ASSERT_NE(recycles, nullptr);
  ASSERT_NE(spawns, nullptr);
  EXPECT_GE(recycles->value, corpus.apps.size() / 4);
  // Every recycle forces a later spawn, except one that lands exactly on a
  // worker's final app (the thread epilogue then finds an empty slot).
  EXPECT_GE(spawns->value, recycles->value);
}

TEST(WorkerPool, TracedRecyclingRunsNeverInheritALockedRegistry) {
  // A worker forked while a sibling driver thread held the trace ring
  // registry or a metrics name registry used to inherit that mutex locked
  // and hang on its first span. Every run starts fresh driver threads (each
  // registers a trace ring) and, recycling after every app, forks a worker
  // per app while its siblings register; the deadline turns a hang into a
  // classified kill instead of a stalled suite.
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig config;
  config.jobs = 8;
  config.isolation_mode = IsolationMode::kPool;
  config.pool_recycle_apps = 1;
  config.sandbox_deadline_ms = 2000.0;

  support::set_metrics_enabled(true);
  support::set_trace_enabled(true);
  for (int run = 0; run < 5 && !HasFailure(); ++run) {
    const auto result = CorpusRunner(pipeline, config).run(corpus);
    EXPECT_EQ(result.stats.killed_timeout, 0u) << "run " << run;
    EXPECT_EQ(result.stats.sandbox_crashed, 0u) << "run " << run;
    EXPECT_EQ(result.completed(), corpus.apps.size()) << "run " << run;
  }
  support::set_trace_enabled(false);
  support::set_metrics_enabled(false);
  support::metrics_reset();
}

// ---------------------------------------------------------------------------
// Pool fault sites: supervisor-side plumbing failures quarantine one app.
// ---------------------------------------------------------------------------

TEST(WorkerPool, InjectedSpawnFailureQuarantinesEveryApp) {
  auto fixture = replicated_jobs(2);
  const auto plan_result = support::FaultPlan::parse("sandbox.pool.spawn=always");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));

  RunnerConfig config;
  config.jobs = 1;
  config.isolation_mode = IsolationMode::kPool;
  const auto result = CorpusRunner(pipeline, config).run(fixture.jobs);

  for (const auto& outcome : result.outcomes) {
    EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kCrashed);
    EXPECT_TRUE(outcome.quarantined);
    EXPECT_NE(outcome.report.crash_message.find("spawn failed"),
              std::string::npos);
  }
  EXPECT_EQ(result.stats.sandbox_crashed, 2u);
}

TEST(WorkerPool, InjectedRpcTearQuarantinesAndRetiresTheWorker) {
  auto fixture = replicated_jobs(6);
  const auto plan_result =
      support::FaultPlan::parse("sandbox.pool.rpc=p:0.5");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));

  const core::DyDroid clean{core::PipelineOptions{}};
  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(clean, thread_config).run(fixture.jobs);

  RunnerConfig config;
  config.jobs = 1;
  config.isolation_mode = IsolationMode::kPool;
  const auto result = CorpusRunner(pipeline, config).run(fixture.jobs);

  std::size_t torn = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto& outcome = result.outcomes[i];
    if (outcome.sandbox_fate == SandboxFate::kCrashed) {
      ++torn;
      EXPECT_TRUE(outcome.quarantined);
    } else {
      // An app after a torn RPC is served by a fresh worker, cleanly.
      EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kNone);
      EXPECT_EQ(core::report_to_json(outcome.report),
                core::report_to_json(golden.outcomes[i].report))
          << "app " << i;
    }
  }
  ASSERT_GT(torn, 0u);
  ASSERT_LT(torn, 6u);
}

TEST(WorkerPool, InjectedRecycleIsInvisibleInReports) {
  const auto corpus = small_corpus();
  const auto plan_result =
      support::FaultPlan::parse("sandbox.pool.recycle=p:0.5");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  const core::DyDroid clean{core::PipelineOptions{}};
  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(clean, thread_config).run(corpus);

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));
  RunnerConfig config;
  config.jobs = 2;
  config.isolation_mode = IsolationMode::kPool;
  const auto result = CorpusRunner(pipeline, config).run(corpus);

  // Recycling happens strictly between attempts: even firing on every
  // other app it can never perturb a single report.
  const auto golden_json = report_jsons(golden);
  const auto result_json = report_jsons(result);
  ASSERT_EQ(result_json.size(), golden_json.size());
  for (std::size_t i = 0; i < golden_json.size(); ++i) {
    EXPECT_EQ(result_json[i], golden_json[i]) << "app " << i;
  }
  EXPECT_EQ(result.stats.sandbox_crashed, 0u);
  EXPECT_EQ(result.stats.quarantined, 0u);
}

// ---------------------------------------------------------------------------
// Journal and cache interplay.
// ---------------------------------------------------------------------------

TEST(WorkerPool, FatedOutcomesJournalAndReplayIdentically) {
  TempPath journal("journal");
  const auto corpus = small_corpus();
  const auto plan_result = support::FaultPlan::parse("sandbox.crash=p:0.4");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));

  RunnerConfig config;
  config.jobs = 2;
  config.isolation_mode = IsolationMode::kPool;
  config.journal_path = journal.path();
  const auto live = CorpusRunner(pipeline, config).run(corpus);
  ASSERT_GT(live.stats.sandbox_crashed, 0u);
  ASSERT_LT(live.stats.sandbox_crashed, corpus.apps.size());

  config.resume = true;
  const auto resumed = CorpusRunner(pipeline, config).run(corpus);
  EXPECT_EQ(resumed.replayed, corpus.apps.size());
  EXPECT_EQ(resumed.analyzed, 0u);
  const auto live_json = report_jsons(live);
  const auto resumed_json = report_jsons(resumed);
  for (std::size_t i = 0; i < corpus.apps.size(); ++i) {
    EXPECT_TRUE(resumed.outcomes[i].replayed);
    EXPECT_EQ(resumed.outcomes[i].sandbox_fate, live.outcomes[i].sandbox_fate);
    EXPECT_EQ(resumed_json[i], live_json[i]) << "app " << i;
  }
}

TEST(WorkerPool, CleanPooledOutcomesCacheAndServeIdentically) {
  TempPath cache("cache");
  auto fixture = replicated_jobs(4);
  const core::DyDroid pipeline{core::PipelineOptions{}};

  RunnerConfig config;
  config.jobs = 1;
  config.isolation_mode = IsolationMode::kPool;
  config.cache_dir = cache.path();

  const auto cold = CorpusRunner(pipeline, config).run(fixture.jobs);
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  const auto warm = CorpusRunner(pipeline, config).run(fixture.jobs);
  EXPECT_EQ(warm.stats.cache_hits, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(core::report_to_json(warm.outcomes[i].report),
              core::report_to_json(cold.outcomes[i].report));
  }
}

TEST(WorkerPool, ShardedPoolRunMatchesUnshardedThreadRun) {
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};

  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, thread_config).run(corpus);
  const auto golden_json = report_jsons(golden);

  // Two pool-mode shards cover the corpus; every analyzed app must match
  // its thread-mode report, and the residue classes must partition.
  std::vector<bool> covered(corpus.apps.size(), false);
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    RunnerConfig config;
    config.jobs = 2;
    config.isolation_mode = IsolationMode::kPool;
    config.shard_index = shard;
    config.shard_count = 2;
    const auto result = CorpusRunner(pipeline, config).run(corpus);
    for (std::size_t i = 0; i < corpus.apps.size(); ++i) {
      if (i % 2 != shard) continue;
      EXPECT_FALSE(covered[i]);
      covered[i] = true;
      EXPECT_EQ(core::report_to_json(result.outcomes[i].report),
                golden_json[i])
          << "app " << i << " in shard " << shard;
    }
  }
  for (std::size_t i = 0; i < covered.size(); ++i) {
    EXPECT_TRUE(covered[i]) << "app " << i << " analyzed by neither shard";
  }
}

// ---------------------------------------------------------------------------
// Batched dispatch: a round trip carries several apps, and every fate stays
// with the app that caused it.
// ---------------------------------------------------------------------------

/// 24 replicas on one driver thread claim runs of 1, 2, 4, 8, 4, 2, 1, ...
/// apps: the app at kMidBatch rides in the middle of the run of 8.
constexpr std::size_t kBatchedApps = 24;
constexpr std::size_t kMidBatch = 10;
constexpr std::uint64_t kMidBatchSeed =
    seed_for_app(kDefaultSeedBase, kMidBatch);

/// Metrics of one pooled run, reset before and disabled after.
struct MeteredRun {
  CorpusResult result;
  support::MetricsSnapshot metrics;

  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    const auto* c = metrics.counter(name);
    return c == nullptr ? 0 : c->value;
  }
};

MeteredRun metered_run(const core::DyDroid& pipeline, const RunnerConfig& config,
                       std::span<const AppJob> jobs) {
  support::metrics_reset();
  support::set_metrics_enabled(true);
  MeteredRun run{CorpusRunner(pipeline, config).run(jobs), {}};
  support::set_metrics_enabled(false);
  run.metrics = support::metrics_snapshot();
  support::metrics_reset();
  return run;
}

RunnerConfig batched_config(std::size_t jobs = 1) {
  RunnerConfig config;
  config.jobs = jobs;
  config.isolation_mode = IsolationMode::kPool;
  return config;
}

/// Every app but `fated` reports exactly as in `golden`, without a fate.
void expect_golden_except(const CorpusResult& result,
                          const CorpusResult& golden, std::size_t fated) {
  ASSERT_EQ(result.outcomes.size(), golden.outcomes.size());
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    if (i == fated) continue;
    EXPECT_EQ(result.outcomes[i].sandbox_fate, SandboxFate::kNone) << "app " << i;
    EXPECT_FALSE(result.outcomes[i].quarantined) << "app " << i;
    EXPECT_EQ(core::report_to_json(result.outcomes[i].report),
              core::report_to_json(golden.outcomes[i].report))
        << "app " << i;
  }
}

TEST(BatchedPool, SignalDeathMidBatchFatesOnlyTheDyingApp) {
  auto fixture = replicated_jobs(kBatchedApps);
  const core::DyDroid clean{core::PipelineOptions{}};
  const auto golden = CorpusRunner(clean, RunnerConfig{}).run(fixture.jobs);

  // SIGABRT, not SIGSEGV: AddressSanitizer turns a SIGSEGV into an exit
  // code, and abort(3) is what a wild write usually ends in anyway.
  const auto dying =
      test::hooked_pipeline(kMidBatchSeed, [] { ::raise(SIGABRT); });
  const MeteredRun run = metered_run(dying, batched_config(), fixture.jobs);

  const auto& fated = run.result.outcomes[kMidBatch];
  EXPECT_EQ(fated.sandbox_fate, SandboxFate::kCrashed);
  EXPECT_EQ(fated.fatal_signal, SIGABRT);
  EXPECT_TRUE(fated.quarantined);
  EXPECT_EQ(fated.attempts, 1u);
  EXPECT_EQ(fated.report.crash_message,
            "sandbox: child died on signal " + std::to_string(SIGABRT));
  expect_golden_except(run.result, golden, kMidBatch);
  EXPECT_EQ(run.result.stats.sandbox_crashed, 1u);
  // The death split exactly one batch; the rest shared round trips.
  EXPECT_EQ(run.counter("sandbox.pool.split"), 1u);
  EXPECT_LT(run.counter("sandbox.pool.rpcs"), kBatchedApps);
}

TEST(BatchedPool, HangMidBatchIsDeadlineKilledAndTheRestRecover) {
  auto fixture = replicated_jobs(kBatchedApps);
  const core::DyDroid clean{core::PipelineOptions{}};
  const auto golden = CorpusRunner(clean, RunnerConfig{}).run(fixture.jobs);

  const auto hanging = test::hooked_pipeline(kMidBatchSeed, [] {
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  RunnerConfig config = batched_config();
  config.sandbox_deadline_ms = 300.0;
  const MeteredRun run = metered_run(hanging, config, fixture.jobs);

  const auto& hung = run.result.outcomes[kMidBatch];
  EXPECT_EQ(hung.sandbox_fate, SandboxFate::kTimedOut);
  EXPECT_EQ(hung.fatal_signal, SIGKILL);
  EXPECT_TRUE(hung.timed_out);
  EXPECT_TRUE(hung.quarantined);
  EXPECT_EQ(hung.report.crash_message,
            "sandbox: killed after exceeding the 300 ms wall deadline");
  EXPECT_LT(hung.wall_ms, 15000.0);
  expect_golden_except(run.result, golden, kMidBatch);
  for (std::size_t i = 0; i < kBatchedApps; ++i) {
    if (i != kMidBatch) {
      EXPECT_FALSE(run.result.outcomes[i].timed_out) << "app " << i;
    }
  }
  EXPECT_EQ(run.result.stats.killed_timeout, 1u);
  EXPECT_EQ(run.counter("sandbox.pool.split"), 1u);
}

TEST(BatchedPool, ExternalSigkillMidBatchIsAbsorbed) {
  auto fixture = replicated_jobs(kBatchedApps);
  const core::DyDroid clean{core::PipelineOptions{}};
  const auto golden = CorpusRunner(clean, RunnerConfig{}).run(fixture.jobs);

  // The first run of the app SIGKILLs its worker mid-batch, as an
  // operator or the kernel would; the marker keeps the re-run clean.
  TempPath marker("batch_sigkill");
  const auto killing = test::hooked_pipeline(
      kMidBatchSeed, [path = marker.path()] {
        if (!std::filesystem::exists(path)) {
          std::ofstream(path) << "killed once";
          ::raise(SIGKILL);
        }
      });
  const MeteredRun run = metered_run(killing, batched_config(), fixture.jobs);

  EXPECT_TRUE(std::filesystem::exists(marker.path()));
  expect_golden_except(run.result, golden, kBatchedApps);
  EXPECT_EQ(run.result.stats.killed_oom, 0u);
  EXPECT_EQ(run.result.stats.quarantined, 0u);
  EXPECT_EQ(run.counter("sandbox.pool.split"), 1u);
}

TEST(BatchedPool, RpcFaultInsideABatchQuarantinesOnlyItsApp) {
  auto fixture = replicated_jobs(kBatchedApps);
  const auto plan = support::FaultPlan::parse("sandbox.pool.rpc=p:0.3");
  ASSERT_TRUE(plan.ok()) << plan.error();
  core::PipelineOptions options;
  options.faults = &plan.value();
  const core::DyDroid pipeline(std::move(options));

  // One app per process draws the same per-app decisions.
  RunnerConfig fork_config = batched_config();
  fork_config.pool_recycle_apps = 1;
  const auto forked = CorpusRunner(pipeline, fork_config).run(fixture.jobs);
  const MeteredRun run = metered_run(pipeline, batched_config(), fixture.jobs);

  std::size_t torn = 0;
  for (std::size_t i = 0; i < kBatchedApps; ++i) {
    const auto& outcome = run.result.outcomes[i];
    EXPECT_EQ(outcome.sandbox_fate, forked.outcomes[i].sandbox_fate) << i;
    EXPECT_EQ(outcome.quarantined, forked.outcomes[i].quarantined) << i;
    EXPECT_EQ(core::report_to_json(outcome.report),
              core::report_to_json(forked.outcomes[i].report))
        << "app " << i;
    if (outcome.sandbox_fate != SandboxFate::kNone) {
      ++torn;
      EXPECT_EQ(outcome.report.crash_message,
                support::fault_message(support::FaultSite::kPoolRpc));
    }
  }
  ASSERT_GT(torn, 1u);
  ASSERT_LT(torn, kBatchedApps);
  // A torn response costs its own app, not its batch: nothing split.
  EXPECT_EQ(run.counter("sandbox.pool.split"), 0u);
  EXPECT_LT(run.counter("sandbox.pool.rpcs"), kBatchedApps);
}

TEST(BatchedPool, RecycleBudgetCountsAppsNotRoundTrips) {
  constexpr std::size_t kApps = 40;
  constexpr std::uint32_t kBudget = 4;
  auto fixture = replicated_jobs(kApps);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig config = batched_config();
  config.pool_recycle_apps = kBudget;
  const MeteredRun run = metered_run(pipeline, config, fixture.jobs);

  EXPECT_EQ(run.result.completed(), kApps);
  // Every worker serves exactly kBudget apps, over fewer round trips.
  EXPECT_EQ(run.counter("sandbox.pool.spawned"), kApps / kBudget);
  EXPECT_EQ(run.counter("sandbox.pool.recycled"), kApps / kBudget);
  EXPECT_LT(run.counter("sandbox.pool.rpcs"), kApps);
  EXPECT_GT(run.counter("sandbox.pool.rpcs"), kApps / kBudget);
}

TEST(BatchedPool, EveryFateMatchesOneAppPerProcessUnderCombinedFaults) {
  // Supervisor-side sandbox faults and an in-child pipeline fault, with
  // the retry policy on: at any worker count, the batched pool settles
  // every app exactly as a fresh process per attempt does.
  const auto corpus = small_corpus();
  const std::vector<AppJob> jobs_of_corpus = jobs_from_corpus(corpus);
  const auto plan = support::FaultPlan::parse(
      "sandbox.crash=p:0.1,sandbox.pool.spawn=p:0.1,sandbox.pool.rpc=p:0.1,"
      "sandbox.pool.recycle=p:0.1,device.install=p:0.2");
  ASSERT_TRUE(plan.ok()) << plan.error();
  core::PipelineOptions options;
  options.faults = &plan.value();
  options.retry_on_crash = true;
  const core::DyDroid pipeline(std::move(options));

  RunnerConfig fork_config = batched_config(2);
  fork_config.pool_recycle_apps = 1;
  const auto forked = CorpusRunner(pipeline, fork_config).run(corpus);
  ASSERT_GT(forked.stats.sandbox_crashed, 0u);
  ASSERT_GT(forked.stats.retried, 0u);
  ASSERT_GT(forked.stats.quarantined, 0u);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const MeteredRun run =
        metered_run(pipeline, batched_config(jobs), jobs_of_corpus);
    EXPECT_LT(run.counter("sandbox.pool.rpcs"), corpus.apps.size()) << jobs;
    ASSERT_EQ(run.result.outcomes.size(), forked.outcomes.size());
    for (std::size_t i = 0; i < forked.outcomes.size(); ++i) {
      const AppOutcome& got = run.result.outcomes[i];
      const AppOutcome& want = forked.outcomes[i];
      const std::string where =
          "jobs " + std::to_string(jobs) + " app " + std::to_string(i);
      EXPECT_EQ(got.sandbox_fate, want.sandbox_fate) << where;
      EXPECT_EQ(got.fatal_signal, want.fatal_signal) << where;
      EXPECT_EQ(got.report.crash_message, want.report.crash_message) << where;
      EXPECT_EQ(got.attempts, want.attempts) << where;
      EXPECT_EQ(got.quarantined, want.quarantined) << where;
      EXPECT_EQ(got.timed_out, want.timed_out) << where;
      EXPECT_EQ(core::report_to_json(got.report),
                core::report_to_json(want.report))
          << where;
    }
  }
}

}  // namespace
}  // namespace dydroid::driver
