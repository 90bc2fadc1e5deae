// CLI argument hardening (ISSUE: malformed numeric flags used to escape as
// uncaught std::invalid_argument / std::out_of_range from bare std::stoull
// and std::stod, killing the process with exit 1 and a raw what() string).
// These tests drive the real dydroid binary: every malformed flag must
// print a usage error mentioning the flag and exit 2; valid invocations —
// including the new --trace/--metrics observability flags and a deliberately
// bogus DYDROID_JOBS — must still succeed.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>

#include "support/hash.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define DYDROID_HAVE_SUBPROCESS 1
#endif

namespace {

#if defined(DYDROID_HAVE_SUBPROCESS)

struct RunResult {
  int exit_code = -1;
  int term_signal = 0;  // non-zero when the pipeline died to a signal
  std::string output;   // stdout + stderr, interleaved

  /// The run was ended by `sig` — either reported directly (the shell
  /// exec'd the binary) or via the shell's 128+N convention.
  bool died_to(int sig) const {
    return term_signal == sig || exit_code == 128 + sig;
  }
};

/// Run `dydroid <args>` (path from the DYDROID_CLI env var, wired up by
/// CMake) through the shell with stderr folded into stdout.
RunResult run_cli(const std::string& args, const std::string& env = "") {
  const char* cli = std::getenv("DYDROID_CLI");
  if (cli == nullptr || cli[0] == '\0') return {};
  const std::string command = env + (env.empty() ? "" : " ") +
                              std::string(cli) + " " + args + " 2>&1";
  RunResult result;
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) result.term_signal = WTERMSIG(status);
  return result;
}

bool cli_available() {
  const char* cli = std::getenv("DYDROID_CLI");
  return cli != nullptr && cli[0] != '\0' && ::access(cli, X_OK) == 0;
}

#define REQUIRE_CLI()                                             \
  if (!cli_available()) {                                         \
    GTEST_SKIP() << "DYDROID_CLI not set (or not executable); "   \
                    "run via ctest";                              \
  }

TEST(CliArgs, SurveyRejectsNonNumericSeed) {
  REQUIRE_CLI();
  const auto result = run_cli("survey --seed abc");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("bad --seed"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("abc"), std::string::npos) << result.output;
}

TEST(CliArgs, SurveyRejectsTrailingGarbageInJobs) {
  REQUIRE_CLI();
  const auto result = run_cli("survey --jobs 4x");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("bad --jobs"), std::string::npos)
      << result.output;
}

TEST(CliArgs, SurveyRejectsNegativeJobs) {
  REQUIRE_CLI();
  // strtoull would silently wrap "-1" to 2^64-1; the checked parser
  // rejects the sign outright.
  const auto result = run_cli("survey --jobs -1");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("bad --jobs"), std::string::npos)
      << result.output;
}

TEST(CliArgs, SurveyRejectsOverflowingScale) {
  REQUIRE_CLI();
  const auto result = run_cli("survey --scale 1e999");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("bad --scale"), std::string::npos)
      << result.output;
}

TEST(CliArgs, SurveyRejectsOverflowingSeed) {
  REQUIRE_CLI();
  const auto result = run_cli("survey --seed 99999999999999999999");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("bad --seed"), std::string::npos)
      << result.output;
}

TEST(CliArgs, GenRejectsBadSeed) {
  REQUIRE_CLI();
  const auto result =
      run_cli("gen " + testing::TempDir() + "/cli_args_gen.sapk --seed 1.5");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("bad --seed"), std::string::npos)
      << result.output;
}

TEST(CliArgs, AnalyzeRejectsBadSeed) {
  REQUIRE_CLI();
  // Flag validation must fire even though the input file exists.
  const std::string apk = testing::TempDir() + "/cli_args_analyze.sapk";
  {
    std::ofstream out(apk, std::ios::binary);
    out << "placeholder";
  }
  const auto result = run_cli("analyze " + apk + " --seed seed");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("bad --seed"), std::string::npos)
      << result.output;
  std::remove(apk.c_str());
}

TEST(CliArgs, FaultcheckRejectsMalformedJobsList) {
  REQUIRE_CLI();
  const auto result = run_cli("faultcheck --jobs 1,2x,8");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("bad --jobs"), std::string::npos)
      << result.output;
}

TEST(CliArgs, FaultcheckRejectsEmptyJobsList) {
  REQUIRE_CLI();
  const auto result = run_cli("faultcheck --jobs ,");
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST(CliArgs, BogusDydroidJobsEnvWarnsAndStillRuns) {
  REQUIRE_CLI();
  const auto result =
      run_cli("survey --scale 0.002 --seed 7", "DYDROID_JOBS=nope");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("DYDROID_JOBS"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("surveyed"), std::string::npos)
      << result.output;
}

TEST(CliArgs, BogusDydroidScaleEnvWarnsAndStillRuns) {
  REQUIRE_CLI();
  // DYDROID_SCALE only steers the bench harness's scale_from_env, which the
  // survey command does not consult — but the CLI must not be affected by
  // it either way. Exercise the env-hook parser through a tiny survey.
  const auto result =
      run_cli("survey --scale 0.002 --seed 7 --jobs 1", "DYDROID_SCALE=huge");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(CliArgs, SurveyTraceAndMetricsProduceOutputs) {
  REQUIRE_CLI();
  const std::string trace_path =
      testing::TempDir() + "/cli_args_trace_" + std::to_string(::getpid()) +
      ".json";
  std::remove(trace_path.c_str());
  const auto result = run_cli("survey --scale 0.002 --seed 7 --jobs 2 " +
                              std::string("--trace ") + trace_path +
                              " --metrics --top 3");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  // --metrics: the latency table, counters and the slowest-app list.
  EXPECT_NE(result.output.find("latency (ms)"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("stage."), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("runner.apps"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("slowest apps"), std::string::npos)
      << result.output;
  // --trace: a Chrome trace_event file with stage-category spans.
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "trace file missing: " << trace_path;
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"stage\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"runner\""), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(CliArgs, MetricsRejectsBadTopCount) {
  REQUIRE_CLI();
  const auto result =
      run_cli("survey --scale 0.002 --seed 7 --jobs 1 --metrics --top ten");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("bad --top"), std::string::npos)
      << result.output;
}

// --- corpus sharding flags (docs/SHARDING.md) ------------------------------

TEST(CliShard, RejectsMalformedShardSpecs) {
  REQUIRE_CLI();
  for (const char* spec : {"abc", "3/2", "2/2", "1/0", "2", "1/",
                           "/4", "-1/4", "1/4x"}) {
    const auto result =
        run_cli(std::string("survey --shard ") + spec);
    EXPECT_EQ(result.exit_code, 2) << spec << ": " << result.output;
    EXPECT_NE(result.output.find("bad --shard"), std::string::npos)
        << spec << ": " << result.output;
  }
}

TEST(CliShard, MergeNeedsAnOutputAndInputs) {
  REQUIRE_CLI();
  const auto result = run_cli("merge");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("merge: need"), std::string::npos)
      << result.output;
}

TEST(CliShard, MergeFailsLoudlyOnAMissingJournal) {
  REQUIRE_CLI();
  const std::string missing =
      testing::TempDir() + "/cli_shard_missing_" +
      std::to_string(::getpid()) + ".jrnl";
  const auto result =
      run_cli("merge " + missing + ".out " + missing);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("merge:"), std::string::npos)
      << result.output;
}

/// Lines that legitimately differ between a live run and a replay (timing
/// and journal bookkeeping).
bool is_timing_line(const std::string& line) {
  return line.find("ms on") != std::string::npos ||
         line.find("journal:") != std::string::npos ||
         line.find("shard ") != std::string::npos;
}

std::string stable_output(const std::string& output) {
  std::string stable;
  std::size_t start = 0;
  while (start < output.size()) {
    std::size_t end = output.find('\n', start);
    if (end == std::string::npos) end = output.size();
    const std::string line = output.substr(start, end - start);
    if (!is_timing_line(line)) stable += line + "\n";
    start = end + 1;
  }
  return stable;
}

TEST(CliShard, ShardedSurveysMergeAndReplayToTheUnshardedSummary) {
  REQUIRE_CLI();
  const std::string dir = testing::TempDir();
  const std::string tag = std::to_string(::getpid());
  const std::string base = "survey --scale 0.002 --seed 7 --jobs 2";

  const auto golden = run_cli(base);
  ASSERT_EQ(golden.exit_code, 0) << golden.output;
  ASSERT_NE(golden.output.find("surveyed"), std::string::npos)
      << golden.output;

  std::string merge_args;
  std::string shard0_output;
  for (int shard = 0; shard < 2; ++shard) {
    const std::string journal =
        dir + "/cli_shard_" + tag + "_s" + std::to_string(shard) + ".jrnl";
    std::remove(journal.c_str());
    const auto run = run_cli(base + " --shard " + std::to_string(shard) +
                             "/2 --journal " + journal);
    ASSERT_EQ(run.exit_code, 0) << run.output;
    EXPECT_NE(run.output.find("shard " + std::to_string(shard) + "/2"),
              std::string::npos)
        << run.output;
    merge_args += " " + journal;
    if (shard == 0) shard0_output = run.output;
  }
  // Two half-corpus runs each cover strictly fewer apps than the golden.
  EXPECT_NE(stable_output(shard0_output), stable_output(golden.output));

  const std::string merged = dir + "/cli_shard_" + tag + "_merged.jrnl";
  std::remove(merged.c_str());
  const auto merge = run_cli("merge " + merged + merge_args);
  ASSERT_EQ(merge.exit_code, 0) << merge.output;
  EXPECT_NE(merge.output.find("merged 2 shard journal(s)"),
            std::string::npos)
      << merge.output;

  const auto replay = run_cli(base + " --resume " + merged);
  ASSERT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_EQ(stable_output(replay.output), stable_output(golden.output));

  for (int shard = 0; shard < 2; ++shard) {
    std::remove((dir + "/cli_shard_" + tag + "_s" + std::to_string(shard) +
                 ".jrnl")
                    .c_str());
  }
  std::remove(merged.c_str());
}

// --- single-app analyze through the corpus runner ---------------------------

/// The `--host URL FILE` arguments `dydroid gen` prints for an app's first
/// remote dependency (empty when it has none).
std::string first_host_flags(const std::string& gen_output) {
  const std::string marker = "--host ";
  const auto at = gen_output.find(marker);
  if (at == std::string::npos) return {};
  const auto end = gen_output.find('\n', at);
  return gen_output.substr(at, end == std::string::npos ? end : end - at);
}

/// The plain `analyze` report of two generated apps, pinned by SHA-256: an
/// own-dex app fuzzed at seed 42, and a Baidu-SDK app served its remote
/// payload from the side-car `gen` wrote.
constexpr const char* kOwnDexReportDigest =
    "a62c21bb7da5d4285c28ce72989a938734ea89cb863e85f9814db8a2c43296de";
constexpr const char* kBaiduReportDigest =
    "733b68934e9ec5865c34cb08ce401f30f83257abe0479a85d708120b2b17e394";

TEST(CliArgs, AnalyzeReportsMatchTheirPinnedDigests) {
  REQUIRE_CLI();
  const std::string base_path = testing::TempDir() + "/cli_analyze_pin_" +
                                std::to_string(::getpid());
  const std::string own = base_path + "_own.sapk";
  const auto gen_own = run_cli("gen " + own + " --own-dex --seed 7");
  ASSERT_EQ(gen_own.exit_code, 0) << gen_own.output;
  const auto own_report = run_cli("analyze " + own + " --seed 42");
  EXPECT_EQ(own_report.exit_code, 0) << own_report.output;
  EXPECT_EQ(dydroid::support::sha256(own_report.output).hex(),
            kOwnDexReportDigest)
      << own_report.output;

  const std::string baidu = base_path + "_baidu.sapk";
  const auto gen_baidu = run_cli("gen " + baidu + " --baidu");
  ASSERT_EQ(gen_baidu.exit_code, 0) << gen_baidu.output;
  const std::string host = first_host_flags(gen_baidu.output);
  ASSERT_FALSE(host.empty()) << gen_baidu.output;
  const auto baidu_report = run_cli("analyze " + baidu + " " + host);
  EXPECT_EQ(baidu_report.exit_code, 0) << baidu_report.output;
  EXPECT_EQ(dydroid::support::sha256(baidu_report.output).hex(),
            kBaiduReportDigest)
      << baidu_report.output;
  for (const auto& path : {own, baidu, baidu + ".hosted.0"}) {
    std::remove(path.c_str());
  }
}

TEST(CliArgs, AnalyzeCacheKeysOnTheHostedPayload) {
  REQUIRE_CLI();
  // The hosted payload is an input of the analysis: the same app served a
  // different payload must miss the cache and print that payload's report,
  // not replay the first payload's.
  const std::string base_path = testing::TempDir() + "/cli_analyze_host_" +
                                std::to_string(::getpid());
  const std::string app = base_path + ".sapk";
  const std::string other = base_path + "_other.sapk";
  const std::string cache = base_path + "_cache";
  std::filesystem::remove_all(cache);
  const auto gen = run_cli("gen " + app + " --baidu");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const auto gen_other = run_cli("gen " + other + " --own-dex --seed 7");
  ASSERT_EQ(gen_other.exit_code, 0) << gen_other.output;
  const std::string host = first_host_flags(gen.output);
  ASSERT_FALSE(host.empty()) << gen.output;
  // `--host URL FILE` with FILE swapped for the other app.
  const std::string url = host.substr(0, host.rfind(' '));

  const std::string own_payload = "analyze " + app + " " + host;
  const std::string other_payload = "analyze " + app + " " + url + " " + other;
  const auto plain_own = run_cli(own_payload);
  const auto plain_other = run_cli(other_payload);
  ASSERT_EQ(plain_own.exit_code, 0) << plain_own.output;
  ASSERT_EQ(plain_other.exit_code, 0) << plain_other.output;
  ASSERT_NE(plain_own.output, plain_other.output);

  const auto cached_own = run_cli(own_payload + " --cache " + cache);
  EXPECT_EQ(cached_own.exit_code, 0) << cached_own.output;
  EXPECT_EQ(cached_own.output, plain_own.output);
  const auto cached_other = run_cli(other_payload + " --cache " + cache);
  EXPECT_EQ(cached_other.exit_code, 0) << cached_other.output;
  EXPECT_EQ(cached_other.output, plain_other.output);
  for (const auto& path : {app, other, app + ".hosted.0"}) {
    std::remove(path.c_str());
  }
  std::filesystem::remove_all(cache);
}

TEST(CliArgs, AnalyzeThroughTheCorpusRunnerPrintsThePlainReport) {
  REQUIRE_CLI();
  // --journal, --resume, --cache (cold, then a warm hit) and --isolate route
  // the one app through the corpus runner; each must print the JSON report
  // of the plain run.
  const std::string base_path = testing::TempDir() + "/cli_analyze_" +
                                std::to_string(::getpid());
  const std::string app = base_path + ".sapk";
  const std::string journal = base_path + ".jrnl";
  const std::string cache = base_path + "_cache";
  std::remove(journal.c_str());
  std::filesystem::remove_all(cache);
  const auto gen = run_cli("gen " + app + " --own-dex --seed 7");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;

  const std::string analyze = "analyze " + app + " --seed 42";
  const auto plain = run_cli(analyze);
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  ASSERT_NE(plain.output.find("\"status\": \"exercised\""),
            std::string::npos)
      << plain.output;
  EXPECT_EQ(dydroid::support::sha256(plain.output).hex(), kOwnDexReportDigest)
      << plain.output;
  for (const std::string& flags :
       {"--journal " + journal, "--resume " + journal, "--cache " + cache,
        "--cache " + cache, std::string("--isolate")}) {
    SCOPED_TRACE(flags);
    const auto run = run_cli(analyze + " " + flags);
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_EQ(run.output, plain.output);
  }
  std::remove(app.c_str());
  std::remove(journal.c_str());
  std::filesystem::remove_all(cache);
}

TEST(CliArgs, AnalyzeResumeOfAnotherAppFails) {
  REQUIRE_CLI();
  // A journal records the job it was made from: resuming it with another
  // APK must fail naming the app and both job digests, not print the
  // journaled app's report.
  const std::string base_path = testing::TempDir() + "/cli_resume_other_" +
                                std::to_string(::getpid());
  const std::string own = base_path + "_own.sapk";
  const std::string baidu = base_path + "_baidu.sapk";
  const std::string journal = base_path + ".jrnl";
  std::remove(journal.c_str());
  ASSERT_EQ(run_cli("gen " + own + " --pkg com.demo.own --own-dex --seed 7")
                .exit_code,
            0);
  ASSERT_EQ(run_cli("gen " + baidu + " --baidu").exit_code, 0);
  const auto journaled =
      run_cli("analyze " + own + " --seed 1 --journal " + journal);
  ASSERT_EQ(journaled.exit_code, 0) << journaled.output;
  ASSERT_NE(journaled.output.find("com.demo.own"), std::string::npos);

  const auto resumed =
      run_cli("analyze " + baidu + " --seed 1 --resume " + journal);
  EXPECT_NE(resumed.exit_code, 0) << resumed.output;
  std::smatch digests;
  ASSERT_TRUE(std::regex_search(
      resumed.output, digests,
      std::regex("app 0 was journaled for job ([0-9a-f]{16})\\.\\.\\. but "
                 "this run's job is ([0-9a-f]{16})\\.\\.\\.")))
      << resumed.output;
  EXPECT_NE(digests[1].str(), digests[2].str());
  EXPECT_EQ(resumed.output.find("\"package\""), std::string::npos)
      << resumed.output;
  for (const auto& path : {own, baidu, baidu + ".hosted.0", journal}) {
    std::remove(path.c_str());
  }
}

TEST(CliArgs, SurveyResumeUnderAnotherCorpusSeedFails) {
  REQUIRE_CLI();
  // Corpus seeds 1 and 2 generate different apps with the same corpus
  // size, seed base and per-app seeds: only the records' job digests tell
  // the journals apart, and the resume must refuse at app 0.
  const std::string journal = testing::TempDir() + "/cli_resume_seed_" +
                              std::to_string(::getpid()) + ".jrnl";
  std::remove(journal.c_str());
  const auto first =
      run_cli("survey --scale 0.005 --seed 1 --jobs 2 --journal " + journal);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  const auto resumed =
      run_cli("survey --scale 0.005 --seed 2 --jobs 2 --resume " + journal);
  EXPECT_NE(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("app 0 was journaled for job"),
            std::string::npos)
      << resumed.output;
  EXPECT_EQ(resumed.output.find("replayed"), std::string::npos)
      << resumed.output;
  std::remove(journal.c_str());
}

TEST(CliArgs, DisasmListingMatchesItsPinnedDigest) {
  REQUIRE_CLI();
  // `dydroid disasm` is the one reader of the smali-like text: its listing
  // plus manifest for this generated app is pinned by SHA-256.
  const std::string app = testing::TempDir() + "/cli_disasm_" +
                          std::to_string(::getpid()) + ".sapk";
  const auto gen = run_cli("gen " + app + " --own-dex --native --seed 7");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const auto disasm = run_cli("disasm " + app);
  EXPECT_EQ(disasm.exit_code, 0) << disasm.output;
  EXPECT_EQ(dydroid::support::sha256(disasm.output).hex(),
            "55ba9378ed62f42c499ba356f012fbe79468fc6592af94123bdaa72295416ce4")
      << disasm.output;
  std::remove(app.c_str());
}

// --- process isolation flags (docs/ISOLATION.md) ---------------------------

TEST(CliArgs, SurveyIsolatePrintsThreadSummaryPlusSandboxLine) {
  REQUIRE_CLI();
  // `--isolate` runs every app in a fresh worker: the summary is the
  // thread-mode one plus exactly one sandbox tally line.
  const std::string base = "survey --scale 0.002 --seed 7 --jobs 2";
  const auto thread = run_cli(base);
  const auto isolated = run_cli(base + " --isolate");
  ASSERT_EQ(thread.exit_code, 0) << thread.output;
  ASSERT_EQ(isolated.exit_code, 0) << isolated.output;
  const std::string sandbox_line =
      "  sandbox: worker-pool, 0 crashed, 0 oom-killed, 0 deadline-killed\n";
  std::string summary = stable_output(isolated.output);
  const auto at = summary.find(sandbox_line);
  ASSERT_NE(at, std::string::npos) << isolated.output;
  summary.erase(at, sandbox_line.size());
  EXPECT_EQ(summary, stable_output(thread.output));
}

TEST(CliArgs, SurveyRejectsUnknownIsolateMode) {
  REQUIRE_CLI();
  // Only `pool` names a mode; a bare --isolate is the recycling pool.
  for (const char* mode : {"vm", "fork"}) {
    const auto result = run_cli(
        std::string("survey --scale 0.002 --jobs 1 --isolate=") + mode);
    EXPECT_EQ(result.exit_code, 2) << mode << ": " << result.output;
    EXPECT_NE(result.output.find("invalid --isolate mode"), std::string::npos)
        << mode << ": " << result.output;
  }
}

// --- resume hints (docs/CHECKPOINT.md) --------------------------------------

/// The command a killed run printed after "resume with: dydroid ", or ""
/// when it printed none.
std::string resume_hint(const std::string& output) {
  const std::string marker = "resume with: dydroid ";
  const auto at = output.find(marker);
  if (at == std::string::npos) return {};
  const auto start = at + marker.size();
  return output.substr(start, output.find('\n', start) - start);
}

TEST(CliArgs, ResumeHintsRepeatThePinnedFlags) {
  REQUIRE_CLI();
  // A journal's metadata pins the fault plan, budget and retry policy (and
  // each record its seed), so a killed run's hint must repeat them:
  // following the hint has to finish the run. The hint is the command as
  // run, so it keeps the flags the metadata does not pin too.
  const std::string base_path = testing::TempDir() + "/cli_hint_" +
                                std::to_string(::getpid());
  const std::string journal = base_path + ".jrnl";
  const std::string app = base_path + ".sapk";

  const std::string survey =
      "survey --scale 0.002 --seed 7 --jobs 2 --faults dex.parse=always "
      "--budget 60000 --retry";
  const auto golden = run_cli(survey);
  ASSERT_EQ(golden.exit_code, 0) << golden.output;
  std::remove(journal.c_str());
  auto run = run_cli(survey + ",driver.kill=nth:40 --journal " + journal);
  for (int round = 0; round < 5 && run.exit_code == 3; ++round) {
    const std::string hint = resume_hint(run.output);
    ASSERT_NE(hint.find("--budget 60000 --retry"), std::string::npos)
        << run.output;
    run = run_cli(hint);
  }
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(stable_output(run.output), stable_output(golden.output));

  // An aborted pooled, memory-capped run resumes pooled, capped and at the
  // same worker count, and ends with the summary of an unjournaled run
  // (which arms no driver fault), sandbox line included. Its journal is
  // spelled --journal=P, which the hint respells --resume P.
  const std::string pooled =
      "survey --scale 0.002 --seed 7 --jobs 2 --isolate=pool "
      "--mem-limit 4000000000 --faults driver.kill=nth:40";
  const auto pooled_golden = run_cli(pooled);
  ASSERT_EQ(pooled_golden.exit_code, 0) << pooled_golden.output;
  ASSERT_NE(pooled_golden.output.find("  sandbox: worker-pool"),
            std::string::npos)
      << pooled_golden.output;
  std::remove(journal.c_str());
  run = run_cli(pooled + " --journal=" + journal);
  ASSERT_EQ(run.exit_code, 3) << run.output;
  for (int round = 0; round < 5 && run.exit_code == 3; ++round) {
    const std::string hint = resume_hint(run.output);
    for (const char* flag :
         {"--jobs 2", "--isolate=pool", "--mem-limit 4000000000"}) {
      ASSERT_NE(hint.find(flag), std::string::npos)
          << flag << " missing from the hint:\n" << run.output;
    }
    run = run_cli(hint);
  }
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(stable_output(run.output), stable_output(pooled_golden.output));

  ASSERT_EQ(run_cli("gen " + app + " --own-dex --seed 7").exit_code, 0);
  const std::string analyze = "analyze " + app + " --seed 42";
  const auto plain = run_cli(analyze);
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  std::remove(journal.c_str());
  const auto killed = run_cli(analyze + " --faults driver.kill=nth:1 " +
                              "--journal " + journal);
  ASSERT_EQ(killed.exit_code, 3) << killed.output;
  const auto resumed = run_cli(resume_hint(killed.output));
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(resumed.output, plain.output);

  // The app's scenario is part of the job: a hint without the hosted
  // payload would resume the app with its download failing.
  const std::string baidu = base_path + "_baidu.sapk";
  const auto gen_baidu = run_cli("gen " + baidu + " --baidu");
  ASSERT_EQ(gen_baidu.exit_code, 0) << gen_baidu.output;
  const std::string host = first_host_flags(gen_baidu.output);
  ASSERT_FALSE(host.empty()) << gen_baidu.output;
  const std::string analyze_baidu = "analyze " + baidu + " " + host;
  const auto served = run_cli(analyze_baidu);
  ASSERT_EQ(served.exit_code, 0) << served.output;
  std::remove(journal.c_str());
  const auto killed_baidu = run_cli(
      analyze_baidu + " --faults driver.kill=nth:1 --journal " + journal);
  ASSERT_EQ(killed_baidu.exit_code, 3) << killed_baidu.output;
  const std::string baidu_hint = resume_hint(killed_baidu.output);
  ASSERT_NE(baidu_hint.find(host), std::string::npos) << killed_baidu.output;
  const auto resumed_baidu = run_cli(baidu_hint);
  EXPECT_EQ(resumed_baidu.exit_code, 0) << resumed_baidu.output;
  EXPECT_EQ(resumed_baidu.output, served.output);
  for (const auto& path : {app, baidu, baidu + ".hosted.0", journal}) {
    std::remove(path.c_str());
  }
}

// --- signal-disposition regression (the leaked-handler bug) ----------------

TEST(CliSignals, StopHandlerIsRestoredBeforeReportPrinting) {
  REQUIRE_CLI();
  // A journaled run installs the graceful-stop SIGINT handler for the
  // duration of the run. DYDROID_TEST_RAISE_STOP simulates Ctrl-C at the
  // start of the report phase: with the disposition restored the process
  // must die to SIGINT before printing its summary. Under the old leaked
  // handler the raise only flipped the (no longer read) stop flag and the
  // full report printed with exit 0.
  const std::string journal =
      testing::TempDir() + "/cli_signal_" + std::to_string(::getpid()) +
      ".jrnl";
  std::remove(journal.c_str());
  const auto result =
      run_cli("survey --scale 0.002 --seed 7 --jobs 1 --journal " + journal,
              "DYDROID_TEST_RAISE_STOP=1");
  EXPECT_TRUE(result.died_to(SIGINT))
      << "exit=" << result.exit_code << " signal=" << result.term_signal
      << "\n" << result.output;
  EXPECT_EQ(result.output.find("surveyed"), std::string::npos)
      << result.output;
  std::remove(journal.c_str());
}

TEST(CliSignals, UnjournaledRunsKeepTheDefaultDisposition) {
  REQUIRE_CLI();
  // Without a journal no handler is ever installed; the test hook's raise
  // must kill the process the ordinary way.
  const auto result = run_cli("survey --scale 0.002 --seed 7 --jobs 1",
                              "DYDROID_TEST_RAISE_STOP=1");
  EXPECT_TRUE(result.died_to(SIGINT))
      << "exit=" << result.exit_code << " signal=" << result.term_signal;
}

#else  // !DYDROID_HAVE_SUBPROCESS

TEST(CliArgs, SkippedWithoutSubprocessSupport) {
  GTEST_SKIP() << "no fork/popen on this platform";
}

#endif

}  // namespace
