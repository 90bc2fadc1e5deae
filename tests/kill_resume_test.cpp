// Crash-safe corpus runs (docs/CHECKPOINT.md): a run killed after the
// N-th journal append — by the injected driver.kill / journal.append
// faults in-process, or by a real SIGKILL of the dydroid CLI — must
// resume to per-app reports and aggregate stats byte-identical to an
// uninterrupted run, at any worker count. Plus: graceful stop, duplicate
// record (last-writer-wins) semantics, loud mismatch failures, and the
// regression guard for attempt accounting under the retry policy.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "appgen/corpus.hpp"
#include "appgen/generator.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/outcome_codec.hpp"
#include "driver/result_cache.hpp"
#include "support/fault.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "hook_stage.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#define DYDROID_HAVE_SUBPROCESS 1
#endif

namespace dydroid::driver {
namespace {

class TempJournal {
 public:
  explicit TempJournal(const std::string& tag) {
    path_ = testing::TempDir() + "dydroid_kr_" + tag + "_" +
            std::to_string(::getpid()) + ".jrnl";
    std::remove(path_.c_str());
  }
  ~TempJournal() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

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

void expect_same_counts(const AggregateStats& got,
                        const AggregateStats& want) {
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
}

// ---------------------------------------------------------------------------
// Injected driver kill: abort after the k-th append, resume, compare.
// ---------------------------------------------------------------------------

TEST(KillResume, InjectedKillResumesByteIdenticalAtAnyWorkerCount) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const std::size_t n = corpus.apps.size();
  ASSERT_GT(n, 10u);

  const core::DyDroid golden_pipeline{core::PipelineOptions{}};
  RunnerConfig golden_config;
  golden_config.jobs = 1;
  const auto golden =
      CorpusRunner(golden_pipeline, golden_config).run(corpus);
  const auto golden_json = report_jsons(golden);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    for (const std::size_t k : {std::size_t{1}, n / 2, n - 1}) {
      TempJournal journal("kill_w" + std::to_string(workers) + "_k" +
                          std::to_string(k));
      // Killed run: driver.kill fires on the k-th journal append.
      {
        auto plan = support::FaultPlan::parse("driver.kill=nth:" +
                                              std::to_string(k));
        ASSERT_TRUE(plan.ok());
        core::PipelineOptions options;
        options.faults = &plan.value();
        const core::DyDroid pipeline(std::move(options));
        RunnerConfig config;
        config.jobs = workers;
        config.journal_path = journal.path();
        std::size_t journaled = 0;
        try {
          (void)CorpusRunner(pipeline, config).run(corpus);
          FAIL() << "expected RunAborted (workers=" << workers
                 << ", k=" << k << ")";
        } catch (const RunAborted& aborted) {
          journaled = aborted.journaled();
        }
        EXPECT_EQ(journaled, k);
      }
      // Resumed run: fault-free pipeline, same corpus and seed base.
      RunnerConfig resume_config;
      resume_config.jobs = workers;
      resume_config.journal_path = journal.path();
      resume_config.resume = true;
      const auto resumed =
          CorpusRunner(golden_pipeline, resume_config).run(corpus);
      EXPECT_FALSE(resumed.interrupted);
      EXPECT_EQ(resumed.replayed, k);
      EXPECT_EQ(resumed.analyzed, n - k);
      const auto resumed_json = report_jsons(resumed);
      ASSERT_EQ(resumed_json.size(), golden_json.size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(resumed_json[i], golden_json[i])
            << "workers=" << workers << " k=" << k << " app=" << i;
      }
      expect_same_counts(resumed.stats, golden.stats);
      // Seeds replayed from the journal match the index derivation.
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(resumed.outcomes[i].seed, seed_for_app(kDefaultSeedBase, i));
      }
    }
  }
}

TEST(KillResume, TornAppendRecoversAndResumes) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const std::size_t n = corpus.apps.size();
  const core::DyDroid golden_pipeline{core::PipelineOptions{}};
  RunnerConfig golden_config;
  golden_config.jobs = 1;
  const auto golden =
      CorpusRunner(golden_pipeline, golden_config).run(corpus);

  TempJournal journal("torn");
  const std::size_t k = 4;  // the 4th append dies halfway through its frame
  {
    auto plan =
        support::FaultPlan::parse("journal.append=nth:" + std::to_string(k));
    ASSERT_TRUE(plan.ok());
    core::PipelineOptions options;
    options.faults = &plan.value();
    const core::DyDroid pipeline(std::move(options));
    RunnerConfig config;
    config.jobs = 1;
    config.journal_path = journal.path();
    EXPECT_THROW((void)CorpusRunner(pipeline, config).run(corpus), RunAborted);
  }
  // The file genuinely carries a torn frame, after the metadata record
  // and k - 1 outcomes.
  auto read = support::read_journal(journal.path());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().torn());
  ASSERT_EQ(read.value().records.size(), 1 + (k - 1));

  RunnerConfig resume_config;
  resume_config.jobs = 2;
  resume_config.journal_path = journal.path();
  resume_config.resume = true;
  const auto resumed =
      CorpusRunner(golden_pipeline, resume_config).run(corpus);
  EXPECT_EQ(resumed.replayed, k - 1);
  EXPECT_EQ(resumed.analyzed, n - (k - 1));
  const auto golden_json = report_jsons(golden);
  const auto resumed_json = report_jsons(resumed);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(resumed_json[i], golden_json[i]) << "app " << i;
  }
  expect_same_counts(resumed.stats, golden.stats);
  // And the resumed journal is whole again: no torn tail, the metadata
  // record plus one record per app (the re-run apps appended after the
  // truncated prefix).
  auto reread = support::read_journal(journal.path());
  ASSERT_TRUE(reread.ok());
  EXPECT_FALSE(reread.value().torn());
  EXPECT_EQ(reread.value().records.size(), 1 + n);
}

// ---------------------------------------------------------------------------
// Graceful stop: in-flight apps finish and are journaled; the partial run
// resumes to the uninterrupted result.
// ---------------------------------------------------------------------------

TEST(KillResume, GracefulStopJournalsInFlightAppsAndResumes) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const std::size_t n = corpus.apps.size();
  const core::DyDroid pipeline{core::PipelineOptions{}};

  RunnerConfig golden_config;
  golden_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, golden_config).run(corpus);

  // The brake is pulled while app `stop_at` is analyzed: an exercised app
  // past the first third, with apps left after it.
  std::size_t stop_at = 0;
  for (std::size_t i = n / 3; i + 1 < n; ++i) {
    if (golden.outcomes[i].report.status == core::DynamicStatus::kExercised) {
      stop_at = i;
      break;
    }
  }
  ASSERT_GT(stop_at, 0u);

  TempJournal journal("stop");
  std::atomic<bool> stop{false};
  // App `stop_at` pulls the brake from inside its own analysis — the
  // deterministic stand-in for the CLI's SIGINT handler. The app itself
  // must still finish and be journaled (stop is polled *between* apps).
  // The journal pins the stage list, so the resume runs the same pipeline.
  const auto braking = test::hooked_pipeline(
      seed_for_app(kDefaultSeedBase, stop_at), [&stop] { stop.store(true); });
  {
    RunnerConfig config;
    config.jobs = 1;
    config.journal_path = journal.path();
    config.stop = &stop;
    const auto partial = CorpusRunner(braking, config).run(corpus);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_EQ(partial.completed(), stop_at + 1);  // in-flight app finished
    EXPECT_TRUE(partial.outcomes[stop_at].completed);
    EXPECT_FALSE(partial.outcomes[stop_at + 1].completed);
  }
  RunnerConfig resume_config;
  resume_config.jobs = 2;
  resume_config.journal_path = journal.path();
  resume_config.resume = true;
  const auto resumed = CorpusRunner(braking, resume_config).run(corpus);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.replayed, stop_at + 1);
  const auto golden_json = report_jsons(golden);
  const auto resumed_json = report_jsons(resumed);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(resumed_json[i], golden_json[i]) << "app " << i;
  }
  expect_same_counts(resumed.stats, golden.stats);
}

// ---------------------------------------------------------------------------
// Resume semantics.
// ---------------------------------------------------------------------------

TEST(KillResume, DuplicateRecordsResolveLastWriterWins) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempJournal journal("dup");
  RunnerConfig config;
  config.jobs = 1;
  config.journal_path = journal.path();
  const auto first = CorpusRunner(pipeline, config).run(corpus);

  // Forge a newer record for app 0 (same seed, different report) — the
  // artifact a kill-during-resume leaves when an app is re-journaled.
  AppOutcome forged = first.outcomes[0];
  forged.report.package = "com.example.superseded.by.this";
  {
    auto writer = support::JournalWriter::open(journal.path());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().append(encode_outcome(0, forged)).ok());
  }
  RunnerConfig resume_config;
  resume_config.jobs = 1;
  resume_config.journal_path = journal.path();
  resume_config.resume = true;
  const auto resumed = CorpusRunner(pipeline, resume_config).run(corpus);
  EXPECT_EQ(resumed.analyzed, 0u);
  EXPECT_EQ(resumed.outcomes[0].report.package,
            "com.example.superseded.by.this");
  EXPECT_TRUE(resumed.outcomes[0].replayed);
}

TEST(KillResume, SeedMismatchFailsLoudly) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempJournal journal("seedmismatch");
  RunnerConfig config;
  config.jobs = 1;
  config.journal_path = journal.path();
  (void)CorpusRunner(pipeline, config).run(corpus);

  RunnerConfig resume_config = config;
  resume_config.resume = true;
  resume_config.seed_base = kDefaultSeedBase + 1;  // different derivation
  EXPECT_THROW((void)CorpusRunner(pipeline, resume_config).run(corpus),
               std::runtime_error);
}

TEST(KillResume, JournalFromBiggerCorpusFailsLoudly) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempJournal journal("mismatch");
  RunnerConfig config;
  config.jobs = 1;
  config.journal_path = journal.path();
  (void)CorpusRunner(pipeline, config).run(corpus);

  const auto jobs = jobs_from_corpus(corpus);
  const auto subset = std::span<const AppJob>(jobs).first(3);
  RunnerConfig resume_config = config;
  resume_config.resume = true;
  EXPECT_THROW((void)CorpusRunner(pipeline, resume_config).run(subset),
               std::runtime_error);
}

TEST(KillResume, ResumeWithAnotherAppsRecordFailsLoudly) {
  // A record names its job (job_digest): a resume whose job at some index
  // is another APK, or the same APK with another hosted payload, must not
  // replay the journaled report — it fails naming that index.
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  std::vector<AppJob> jobs = jobs_from_corpus(corpus);
  appgen::AppSpec spec;
  spec.package = "com.resume.remote";
  spec.category = "Tools";
  spec.baidu_remote_sdk = true;
  support::Rng rng(41);
  const auto remote = appgen::build_app(spec, rng);
  ASSERT_EQ(remote.scenario.hosted_urls.size(), 1u);
  AppJob hosted_job;
  hosted_job.apk = remote.apk;
  hosted_job.scenario = remote.scenario;
  jobs.push_back(hosted_job);
  const std::size_t hosted = jobs.size() - 1;

  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempJournal journal("another_app");
  RunnerConfig config;
  config.jobs = 2;
  config.journal_path = journal.path();
  (void)CorpusRunner(pipeline, config).run(jobs);

  RunnerConfig resume_config = config;
  resume_config.resume = true;
  const auto expect_refused = [&](const std::vector<AppJob>& resumed,
                                  std::size_t index) {
    const std::string want =
        "app " + std::to_string(index) + " was journaled for job ";
    try {
      (void)CorpusRunner(pipeline, resume_config).run(resumed);
      ADD_FAILURE() << "resume replayed another job's record at " << index;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(job_digest(resumed[index])
                                               .hex()
                                               .substr(0, 16)),
                std::string::npos)
          << e.what();
    }
  };
  std::vector<AppJob> swapped = jobs;
  swapped[3].apk = jobs[4].apk;
  expect_refused(swapped, 3);
  std::vector<AppJob> rehosted = jobs;
  rehosted[hosted].scenario.hosted_urls[0].second =
      support::Blob::of_string("another payload");
  expect_refused(rehosted, hosted);

  // The refusals left the journal as it was: the same jobs still replay.
  const auto resumed = CorpusRunner(pipeline, resume_config).run(jobs);
  EXPECT_EQ(resumed.replayed, jobs.size());
  EXPECT_EQ(resumed.analyzed, 0u);
}

TEST(KillResume, TwoForeignRecordsReportTheLowerIndexAtAnyWorkerCount) {
  // The job check is split across the run's threads: whichever range
  // finishes first, the refusal names the lowest disagreeing index.
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const std::vector<AppJob> jobs = jobs_from_corpus(corpus);
  ASSERT_GT(jobs.size(), 16u);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempJournal journal("two_foreign");
  RunnerConfig config;
  config.jobs = 2;
  config.journal_path = journal.path();
  (void)CorpusRunner(pipeline, config).run(jobs);

  const std::size_t low = 5;
  const std::size_t high = jobs.size() - 3;
  std::vector<AppJob> swapped = jobs;
  swapped[low].apk = jobs[low + 1].apk;
  swapped[high].apk = jobs[high - 1].apk;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    RunnerConfig resume_config = config;
    resume_config.jobs = workers;
    resume_config.resume = true;
    try {
      (void)CorpusRunner(pipeline, resume_config).run(swapped);
      ADD_FAILURE() << "resume replayed foreign records at jobs " << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "app " + std::to_string(low) + " was journaled for job "),
                std::string::npos)
          << "jobs " << workers << ": " << e.what();
    }
  }
}

TEST(KillResume, ResumeWithoutJournalPathFailsLoudly) {
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig config;
  config.resume = true;
  const std::vector<AppJob> jobs;
  EXPECT_THROW(
      (void)CorpusRunner(pipeline, config).run(std::span<const AppJob>(jobs)),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Regression: attempt accounting must agree between the live run and a
// journal replay — the attempts field is recorded when an attempt *starts*,
// so a journaled outcome can never claim a retry that did not run (and the
// escaping-exception belt always leaves attempts >= 1 with wall time set).
// ---------------------------------------------------------------------------

TEST(KillResume, RetryAndQuarantineStatsSurviveReplay) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus(0.003);
  auto plan = support::FaultPlan::parse("device.boot=p:0.4");
  ASSERT_TRUE(plan.ok());
  core::PipelineOptions options;
  options.faults = &plan.value();
  options.retry_on_crash = true;
  const core::DyDroid pipeline(std::move(options));

  TempJournal journal("retry");
  RunnerConfig config;
  config.jobs = 2;
  config.journal_path = journal.path();
  const auto live = CorpusRunner(pipeline, config).run(corpus);
  ASSERT_GT(live.stats.retried, 0u)
      << "fault plan produced no retries; regression test is vacuous";

  // Replay-only run: every outcome comes from the journal.
  RunnerConfig resume_config = config;
  resume_config.resume = true;
  const auto replayed = CorpusRunner(pipeline, resume_config).run(corpus);
  EXPECT_EQ(replayed.analyzed, 0u);
  EXPECT_EQ(replayed.replayed, corpus.apps.size());
  expect_same_counts(replayed.stats, live.stats);
  for (std::size_t i = 0; i < live.outcomes.size(); ++i) {
    EXPECT_GE(live.outcomes[i].attempts, 1u);
    EXPECT_EQ(replayed.outcomes[i].attempts, live.outcomes[i].attempts)
        << "app " << i;
    EXPECT_EQ(replayed.outcomes[i].quarantined, live.outcomes[i].quarantined)
        << "app " << i;
    // Replayed wall time is the journaled (original) measurement.
    EXPECT_EQ(replayed.outcomes[i].wall_ms, live.outcomes[i].wall_ms);
  }
}

// ---------------------------------------------------------------------------
// The real thing: SIGKILL a `dydroid survey --journal` subprocess mid-run,
// resume it, and diff the summary against an uninterrupted run.
// ---------------------------------------------------------------------------

#ifdef DYDROID_HAVE_SUBPROCESS

/// Lines that legitimately differ between runs (wall-clock timing and the
/// journal bookkeeping line).
bool is_timing_line(const std::string& line) {
  return line.find("ms on") != std::string::npos ||
         line.find("journal:") != std::string::npos;
}

std::vector<std::string> stable_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!is_timing_line(line)) lines.push_back(line);
  }
  return lines;
}

off_t file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

TEST(KillResume, SigkilledCliRunResumesToGoldenSummary) {
  const char* cli = std::getenv("DYDROID_CLI");
  if (cli == nullptr || ::access(cli, X_OK) != 0) {
    GTEST_SKIP() << "DYDROID_CLI not set (or not executable); "
                    "run via ctest to exercise the SIGKILL path";
  }
  const std::string dir = testing::TempDir();
  const std::string tag = std::to_string(::getpid());
  const std::string journal = dir + "dydroid_sigkill_" + tag + ".jrnl";
  const std::string golden_out = dir + "dydroid_sigkill_golden_" + tag;
  const std::string resumed_out = dir + "dydroid_sigkill_resumed_" + tag;
  std::remove(journal.c_str());

  const std::string base_args = " survey --scale 0.004 --seed 11 --jobs 2";
  // Uninterrupted golden run (no journal).
  ASSERT_EQ(std::system((std::string(cli) + base_args + " > " + golden_out +
                         " 2>/dev/null")
                            .c_str()),
            0);

  // Journaled run, SIGKILLed as soon as the journal holds real records.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, 1);
      ::dup2(devnull, 2);
    }
    ::execl(cli, "dydroid", "survey", "--scale", "0.004", "--seed", "11",
            "--jobs", "2", "--journal", journal.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);
  }
  bool exited = false;
  for (int i = 0; i < 5000; ++i) {  // up to ~5 s
    if (file_size(journal) > 256) break;  // journal is live: kill mid-run
    int status = 0;
    if (::waitpid(child, &status, WNOHANG) == child) {
      exited = true;  // finished before we could kill it — still resumable
      break;
    }
    ::usleep(1000);
  }
  if (!exited) {
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
  }

  // Resume and compare the stable summary lines.
  ASSERT_EQ(std::system((std::string(cli) + base_args + " --resume " +
                         journal + " > " + resumed_out + " 2>/dev/null")
                            .c_str()),
            0);
  const auto golden_lines = stable_lines(golden_out);
  const auto resumed_lines = stable_lines(resumed_out);
  ASSERT_FALSE(golden_lines.empty());
  EXPECT_EQ(resumed_lines, golden_lines);

  std::remove(journal.c_str());
  std::remove(golden_out.c_str());
  std::remove(resumed_out.c_str());
}

#endif  // DYDROID_HAVE_SUBPROCESS

}  // namespace
}  // namespace dydroid::driver
