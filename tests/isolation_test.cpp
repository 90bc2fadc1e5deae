// Process-isolation sandbox suite (docs/ISOLATION.md): the sandbox result
// stream (the pool response codec) and the CorpusRunner integration in the
// `--isolate` configuration — a worker pool that recycles after every
// app, so every attempt runs in a fresh process. Isolated runs must
// reproduce thread-mode reports byte-for-byte at any worker count (faults
// on and off), while signal/OOM/deadline deaths classify into quarantined
// crash outcomes that journal, replay and interact with the result cache
// correctly.
#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "appgen/corpus.hpp"
#include "appgen/generator.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/sandbox.hpp"
#include "support/fault.hpp"
#include "support/io.hpp"
#include "support/worker_pool.hpp"
#include "hook_stage.hpp"

namespace dydroid::driver {
namespace {

/// The seed the runner gives the first job of a default-configured run.
constexpr std::uint64_t kFirstAppSeed = seed_for_app(kDefaultSeedBase, 0);

appgen::Corpus small_corpus(double scale = 0.002) {
  appgen::CorpusConfig config;
  config.scale = scale;  // every table row floored at 1 → a few dozen apps
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

/// Jobs that replicate one generated app N times. A test makes one of them
/// misbehave (hang, hog memory) inside the sandboxed child through a
/// test::hooked_pipeline aimed at its seed.
struct OneAppJobs {
  appgen::GeneratedApp app;
  std::vector<AppJob> jobs;
};

OneAppJobs replicated_jobs(std::size_t count, std::uint64_t rng_seed = 17) {
  OneAppJobs out;
  appgen::AppSpec spec;
  spec.package = "com.isolation.app";
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

void expect_same_counts(const AggregateStats& got, const AggregateStats& want) {
  EXPECT_EQ(got.apps, want.apps);
  EXPECT_EQ(got.not_run, want.not_run);
  EXPECT_EQ(got.rewriting_failure, want.rewriting_failure);
  EXPECT_EQ(got.no_activity, want.no_activity);
  EXPECT_EQ(got.crashed, want.crashed);
  EXPECT_EQ(got.exercised, want.exercised);
  EXPECT_EQ(got.decompile_failed, want.decompile_failed);
  EXPECT_EQ(got.static_dcl, want.static_dcl);
  EXPECT_EQ(got.intercepted, want.intercepted);
  EXPECT_EQ(got.remote_loaders, want.remote_loaders);
  EXPECT_EQ(got.malware_carriers, want.malware_carriers);
  EXPECT_EQ(got.vulnerable, want.vulnerable);
  EXPECT_EQ(got.privacy_leaking, want.privacy_leaking);
  EXPECT_EQ(got.binaries, want.binaries);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.timed_out, want.timed_out);
  EXPECT_EQ(got.retried, want.retried);
  EXPECT_EQ(got.quarantined, want.quarantined);
  EXPECT_EQ(got.sandbox_crashed, want.sandbox_crashed);
  EXPECT_EQ(got.killed_oom, want.killed_oom);
  EXPECT_EQ(got.killed_timeout, want.killed_timeout);
}

/// What `--isolate` means: the worker pool, recycled after every app, so
/// every attempt gets a fresh process.
RunnerConfig isolate_config(std::size_t jobs) {
  RunnerConfig config;
  config.jobs = jobs;
  config.isolation_mode = IsolationMode::kPool;
  config.pool_recycle_apps = 1;
  return config;
}

// ---------------------------------------------------------------------------
// Result stream: the pool response, magic + one CRC frame of outcome_codec
// payload.
// ---------------------------------------------------------------------------

AppOutcome fated_outcome() {
  AppOutcome outcome;
  outcome.report.package = "com.isolation.codec";
  outcome.report.status = core::DynamicStatus::kCrash;
  outcome.report.crash_message = "sandbox: child died on signal 11";
  outcome.seed = 0xBE9C0007ull;
  outcome.wall_ms = 12.5;
  outcome.attempts = 2;
  outcome.timed_out = true;
  outcome.quarantined = true;
  outcome.sandbox_fate = SandboxFate::kOomKilled;
  outcome.fatal_signal = SIGKILL;
  return outcome;
}

/// The framed response carrying one finished attempt.
support::Bytes one_response(std::size_t app_index, const AppOutcome& outcome) {
  PoolResponseEncoder encoder;
  encoder.add(app_index, outcome);
  return encoder.finish();
}

TEST(SandboxCodec, ResultStreamRoundTrips) {
  const AppOutcome outcome = fated_outcome();
  const support::Bytes stream = one_response(42, outcome);
  auto decoded = decode_pool_responses(stream);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  ASSERT_EQ(decoded.value().size(), 1u);
  EXPECT_EQ(decoded.value()[0].index, 42u);
  const auto& shipped = decoded.value()[0].outcome;
  EXPECT_EQ(shipped.seed, outcome.seed);
  EXPECT_EQ(shipped.attempts, outcome.attempts);
  EXPECT_TRUE(shipped.timed_out);
  EXPECT_TRUE(shipped.quarantined);
  EXPECT_EQ(shipped.sandbox_fate, SandboxFate::kOomKilled);
  EXPECT_EQ(shipped.fatal_signal, SIGKILL);
  EXPECT_EQ(core::report_to_json(shipped.report),
            core::report_to_json(outcome.report));
}

TEST(SandboxCodec, TornAndEmptyStreamsFailWithoutThrowing) {
  const support::Bytes stream = one_response(1, fated_outcome());
  EXPECT_FALSE(decode_pool_responses({}).ok());  // child died pre-write
  for (const std::size_t keep :
       {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{12},
        stream.size() - 1}) {
    const auto torn = decode_pool_responses(
        std::span<const std::uint8_t>(stream.data(), keep));
    EXPECT_FALSE(torn.ok()) << "prefix of " << keep << " bytes decoded";
  }
  support::Bytes flipped = stream;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(decode_pool_responses(flipped).ok());
}

// ---------------------------------------------------------------------------
// Golden equivalence: isolated runs reproduce thread mode byte-for-byte.
// ---------------------------------------------------------------------------

TEST(Isolation, IsolateModeMatchesThreadModeAtAnyWorkerCount) {
  const auto corpus = small_corpus();
  ASSERT_GT(corpus.apps.size(), 10u);
  const core::DyDroid pipeline{core::PipelineOptions{}};

  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, thread_config).run(corpus);
  const auto golden_json = report_jsons(golden);

  for (const std::size_t jobs : {1u, 2u, 8u}) {
    const RunnerConfig config = isolate_config(jobs);
    const auto isolated = CorpusRunner(pipeline, config).run(corpus);
    ASSERT_EQ(isolated.outcomes.size(), corpus.apps.size());
    const auto isolated_json = report_jsons(isolated);
    for (std::size_t i = 0; i < golden_json.size(); ++i) {
      EXPECT_EQ(isolated_json[i], golden_json[i])
          << "app " << i << " at jobs=" << jobs;
      EXPECT_EQ(isolated.outcomes[i].sandbox_fate, SandboxFate::kNone);
      EXPECT_EQ(isolated.outcomes[i].seed, golden.outcomes[i].seed);
      EXPECT_EQ(isolated.outcomes[i].attempts, golden.outcomes[i].attempts);
    }
    expect_same_counts(isolated.stats, golden.stats);
  }
}

TEST(Isolation, IsolateModeMatchesThreadModeUnderFaultInjection) {
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

  RunnerConfig config = isolate_config(2);
  const auto isolated = CorpusRunner(pipeline, config).run(corpus);

  // The worker runs the identical per-app fault session, so injected
  // pipeline crashes, retries and quarantines reproduce exactly.
  const auto golden_json = report_jsons(golden);
  const auto isolated_json = report_jsons(isolated);
  ASSERT_EQ(isolated_json.size(), golden_json.size());
  for (std::size_t i = 0; i < golden_json.size(); ++i) {
    EXPECT_EQ(isolated_json[i], golden_json[i]) << "app " << i;
    EXPECT_EQ(isolated.outcomes[i].attempts, golden.outcomes[i].attempts);
    EXPECT_EQ(isolated.outcomes[i].quarantined, golden.outcomes[i].quarantined);
    EXPECT_EQ(isolated.outcomes[i].timed_out, golden.outcomes[i].timed_out);
  }
  expect_same_counts(isolated.stats, golden.stats);
}

// ---------------------------------------------------------------------------
// Classification: signal death / OOM kill / deadline kill.
// ---------------------------------------------------------------------------

TEST(Isolation, InjectedChildCrashClassifiesWithFatalSignal) {
  auto fixture = replicated_jobs(3);
  const auto plan_result = support::FaultPlan::parse("sandbox.crash=always");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));

  RunnerConfig config = isolate_config(2);
  const auto result = CorpusRunner(pipeline, config).run(fixture.jobs);

  ASSERT_EQ(result.outcomes.size(), 3u);
  for (const auto& outcome : result.outcomes) {
    EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kCrashed);
    EXPECT_EQ(outcome.fatal_signal, SIGABRT);  // a real abort in the child
    EXPECT_TRUE(outcome.quarantined);  // forced even with retries off
    EXPECT_EQ(outcome.attempts, 1u);
    EXPECT_EQ(outcome.report.status, core::DynamicStatus::kCrash);
    EXPECT_NE(outcome.report.crash_message.find("signal"), std::string::npos);
    EXPECT_GT(outcome.wall_ms, 0.0);
  }
  EXPECT_EQ(result.stats.sandbox_crashed, 3u);
  EXPECT_EQ(result.stats.crashed, 3u);  // kills land in Table II `crashed`
  EXPECT_EQ(result.stats.killed_oom, 0u);
  EXPECT_EQ(result.stats.killed_timeout, 0u);
  EXPECT_EQ(result.stats.quarantined, 3u);
}

TEST(Isolation, MemoryExplodingAppIsKilledOomAndQuarantined) {
  if (!support::address_space_limit_supported()) {
    GTEST_SKIP() << "RLIMIT_AS unsupported under this sanitizer";
  }
  auto fixture = replicated_jobs(1);
  const auto pipeline = test::hooked_pipeline(kFirstAppSeed, [] {
    std::vector<std::byte*> hog;
    for (;;) hog.push_back(new std::byte[64 << 20]);  // runs in the child
  });

  RunnerConfig config = isolate_config(1);
  config.sandbox_mem_limit_bytes = 3ull << 30;
  const auto result = CorpusRunner(pipeline, config).run(fixture.jobs);

  const auto& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kOomKilled);
  EXPECT_TRUE(outcome.quarantined);
  EXPECT_EQ(outcome.report.status, core::DynamicStatus::kCrash);
  EXPECT_EQ(result.stats.killed_oom, 1u);
  EXPECT_EQ(result.stats.crashed, 1u);
  EXPECT_EQ(result.stats.sandbox_crashed, 0u);
}

TEST(Isolation, HangingAppIsDeadlineKilledWithinBudget) {
  auto fixture = replicated_jobs(1);
  const auto pipeline = test::hooked_pipeline(kFirstAppSeed, [] {
    // An app stuck forever: only the supervisor's SIGKILL ends it.
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });

  RunnerConfig config = isolate_config(1);
  config.sandbox_deadline_ms = 300.0;
  const auto result = CorpusRunner(pipeline, config).run(fixture.jobs);

  const auto& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kTimedOut);
  EXPECT_EQ(outcome.fatal_signal, SIGKILL);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_TRUE(outcome.quarantined);
  EXPECT_EQ(outcome.report.status, core::DynamicStatus::kCrash);
  // The deadline, not the hang, bounds the app's wall time.
  EXPECT_LT(outcome.wall_ms, 15000.0);
  EXPECT_EQ(result.stats.killed_timeout, 1u);
  EXPECT_EQ(result.stats.timed_out, 1u);
  EXPECT_EQ(result.stats.crashed, 1u);
}

class TempPath {
 public:
  explicit TempPath(const std::string& tag) {
    path_ = testing::TempDir() + "dydroid_isolation_" + tag + "_" +
            std::to_string(::getpid());
    std::remove(path_.c_str());
  }
  ~TempPath() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // file or directory
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// External SIGKILL: transparent re-dispatch, bounded escalation.
// ---------------------------------------------------------------------------

TEST(Isolation, ExternallyKilledChildRespawnsTransparently) {
  auto fixture = replicated_jobs(1);
  const core::DyDroid pipeline{core::PipelineOptions{}};

  RunnerConfig thread_config;
  thread_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, thread_config).run(fixture.jobs);

  // First execution of the app SIGKILLs its own worker (indistinguishable
  // from an external kill); the marker file makes the re-dispatch clean.
  TempPath marker("respawn");
  const auto killing = test::hooked_pipeline(
      kFirstAppSeed, [path = marker.path()] {
        if (!std::filesystem::exists(path)) {
          std::ofstream(path) << "killed once";
          ::raise(SIGKILL);
        }
      });

  RunnerConfig config = isolate_config(1);
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

TEST(Isolation, RepeatedExternalSigkillEscalatesToOomClassification) {
  auto fixture = replicated_jobs(1);
  // Every execution dies to SIGKILL: the respawn budget must run out and
  // the app classify as a kernel-style OOM kill, not loop forever.
  const auto pipeline =
      test::hooked_pipeline(kFirstAppSeed, [] { ::raise(SIGKILL); });

  RunnerConfig config = isolate_config(1);
  const auto result = CorpusRunner(pipeline, config).run(fixture.jobs);

  const auto& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kOomKilled);
  EXPECT_EQ(outcome.fatal_signal, SIGKILL);
  EXPECT_TRUE(outcome.quarantined);
  EXPECT_EQ(outcome.report.status, core::DynamicStatus::kCrash);
  EXPECT_EQ(result.stats.killed_oom, 1u);
  EXPECT_EQ(result.stats.crashed, 1u);
}

// ---------------------------------------------------------------------------
// Journal and cache interplay.
// ---------------------------------------------------------------------------

TEST(Isolation, FatedOutcomesJournalAndReplayIdentically) {
  TempPath journal("journal");
  const auto corpus = small_corpus();
  const auto plan_result = support::FaultPlan::parse("sandbox.crash=p:0.4");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid pipeline(std::move(options));

  RunnerConfig config = isolate_config(2);
  config.journal_path = journal.path();
  const auto live = CorpusRunner(pipeline, config).run(corpus);
  // The probabilistic injection must actually have fated some apps — and
  // spared some — or the replay assertion below is vacuous.
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
    EXPECT_EQ(resumed.outcomes[i].fatal_signal, live.outcomes[i].fatal_signal);
    EXPECT_EQ(resumed_json[i], live_json[i]) << "app " << i;
  }
  expect_same_counts(resumed.stats, live.stats);
}

TEST(Isolation, FatedOutcomesAreNeverCachedButCleanOnesAre) {
  TempPath cache("cache");
  auto fixture = replicated_jobs(4);
  const auto plan_result = support::FaultPlan::parse("sandbox.crash=always");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  RunnerConfig config = isolate_config(1);
  config.cache_dir = cache.path();

  {
    // Every app dies in the sandbox: a kill is an environment fact, not a
    // content fact, so nothing may be inserted.
    core::PipelineOptions options;
    options.faults = &plan;
    const core::DyDroid faulty(std::move(options));
    const auto first = CorpusRunner(faulty, config).run(fixture.jobs);
    EXPECT_EQ(first.stats.cache_misses, 4u);
    EXPECT_EQ(first.stats.cache_hits, 0u);
    const auto second = CorpusRunner(faulty, config).run(fixture.jobs);
    EXPECT_EQ(second.stats.cache_hits, 0u);  // nothing was cached
    EXPECT_EQ(second.stats.sandbox_crashed, 4u);
  }
  {
    // Clean sandboxed outcomes cache normally and serve identically.
    const core::DyDroid clean{core::PipelineOptions{}};
    const auto cold = CorpusRunner(clean, config).run(fixture.jobs);
    EXPECT_EQ(cold.stats.cache_hits, 0u);
    const auto warm = CorpusRunner(clean, config).run(fixture.jobs);
    EXPECT_EQ(warm.stats.cache_hits, 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(core::report_to_json(warm.outcomes[i].report),
                core::report_to_json(cold.outcomes[i].report));
    }
  }
  std::filesystem::remove_all(cache.path());
}

}  // namespace
}  // namespace dydroid::driver
