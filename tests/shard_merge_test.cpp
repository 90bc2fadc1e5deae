// Sharded corpus execution and the deterministic shard-journal merge
// (docs/SHARDING.md): N independent `--shard I/N` runs, folded by
// merge_shard_journals into one journal whose replay is byte-identical to
// an unsharded run — at any worker count, faults on or off. Plus the one
// journal format (every journal leads with its run's metadata, so resume
// and merge refuse differently configured runs), the loud failure matrix
// (missing/duplicated shards, overlapping residues, mismatched
// fingerprints, corrupt metadata), the kill-one-shard → resume → merge
// recovery path, and the validation boundaries for the seed-overflow and
// trace-context-narrowing bugfixes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "appgen/corpus.hpp"
#include "appgen/generator.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/outcome_codec.hpp"
#include "driver/result_cache.hpp"
#include "driver/shard_merge.hpp"
#include "support/fault.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace dydroid::driver {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    path_ = testing::TempDir() + "dydroid_shard_" + tag + "_" +
            std::to_string(::getpid()) + ".jrnl";
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
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

RunnerConfig shard_config(std::uint32_t index, std::uint32_t count,
                          const std::string& journal, std::size_t jobs = 1) {
  RunnerConfig config;
  config.jobs = jobs;
  config.shard_index = index;
  config.shard_count = count;
  config.journal_path = journal;
  return config;
}

/// Run all N shards of `corpus` through `pipeline`, journaling each shard
/// into journals[i].path().
void run_shards(const core::DyDroid& pipeline, const appgen::Corpus& corpus,
                const std::vector<TempFile>& journals, std::size_t jobs) {
  const std::uint32_t count = static_cast<std::uint32_t>(journals.size());
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto result =
        CorpusRunner(pipeline, shard_config(i, count, journals[i].path(), jobs))
            .run(corpus);
    ASSERT_FALSE(result.interrupted);
    ASSERT_EQ(result.analyzed, result.shard_apps);
    ASSERT_EQ(result.shard_apps,
              shard_app_count(corpus.apps.size(), i, count));
  }
}

std::vector<std::string> journal_paths(const std::vector<TempFile>& journals) {
  std::vector<std::string> paths;
  for (const auto& journal : journals) paths.push_back(journal.path());
  return paths;
}

/// Expect merge_shard_journals to fail with a message containing `needle`.
void expect_merge_failure(const std::string& out,
                          const std::vector<std::string>& inputs,
                          const std::string& needle) {
  const auto merged = merge_shard_journals(out, inputs);
  ASSERT_FALSE(merged.ok()) << "merge unexpectedly succeeded";
  EXPECT_NE(merged.error().find(needle), std::string::npos)
      << "error was: " << merged.error();
}

// ---------------------------------------------------------------------------
// Golden equivalence: unsharded vs N shards merged, at every worker count,
// faults off and on.
// ---------------------------------------------------------------------------

void check_golden_equivalence(const core::DyDroid& pipeline,
                              const appgen::Corpus& corpus) {
  const std::size_t n = corpus.apps.size();
  RunnerConfig golden_config;
  golden_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, golden_config).run(corpus);
  const auto golden_json = report_jsons(golden);

  for (const std::uint32_t shards : {2u, 3u, 8u}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      std::vector<TempFile> journals;
      journals.reserve(shards);
      for (std::uint32_t i = 0; i < shards; ++i) {
        journals.emplace_back("gold_n" + std::to_string(shards) + "_w" +
                              std::to_string(workers) + "_s" +
                              std::to_string(i));
      }
      run_shards(pipeline, corpus, journals, workers);

      TempFile merged_out("gold_merged_n" + std::to_string(shards) + "_w" +
                          std::to_string(workers));
      const auto merged =
          merge_shard_journals(merged_out.path(), journal_paths(journals));
      ASSERT_TRUE(merged.ok()) << merged.error();
      EXPECT_EQ(merged.value().shard_count, shards);
      EXPECT_EQ(merged.value().corpus_size, n);
      EXPECT_EQ(merged.value().records_merged, n);
      EXPECT_EQ(merged.value().duplicates_dropped, 0u);
      EXPECT_EQ(merged.value().torn_bytes, 0u);

      // The merged journal replays like an unsharded run's journal: every
      // outcome restored, none re-analyzed, reports byte-identical to the
      // uninterrupted unsharded run.
      RunnerConfig replay_config;
      replay_config.jobs = 2;
      replay_config.journal_path = merged_out.path();
      replay_config.resume = true;
      const auto replayed =
          CorpusRunner(pipeline, replay_config).run(corpus);
      EXPECT_EQ(replayed.replayed, n);
      EXPECT_EQ(replayed.analyzed, 0u);
      const auto replayed_json = report_jsons(replayed);
      ASSERT_EQ(replayed_json.size(), golden_json.size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(replayed_json[i], golden_json[i])
            << "shards=" << shards << " workers=" << workers << " app=" << i;
      }
      expect_same_counts(replayed.stats, golden.stats);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(replayed.outcomes[i].seed,
                  seed_for_app(kDefaultSeedBase, i));
      }
    }
  }
}

TEST(ShardMerge, GoldenEquivalenceAcrossShardAndWorkerCounts) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  ASSERT_GT(corpus.apps.size(), 10u);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  check_golden_equivalence(pipeline, corpus);
}

TEST(ShardMerge, GoldenEquivalenceWithFaultsAndRetries) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  auto plan = support::FaultPlan::parse("device.boot=p:0.4");
  ASSERT_TRUE(plan.ok());
  core::PipelineOptions options;
  options.faults = &plan.value();
  options.retry_on_crash = true;
  const core::DyDroid pipeline(std::move(options));
  check_golden_equivalence(pipeline, corpus);
}

// ---------------------------------------------------------------------------
// Journal format: every journal leads with its run's metadata — I/N for a
// shard, 0/1 unsharded and merged; the merge preserves payloads verbatim.
// ---------------------------------------------------------------------------

TEST(ShardMerge, ShardJournalLeadsWithItsMetadataRecord) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempFile journal("meta");
  const auto result =
      CorpusRunner(pipeline, shard_config(1, 3, journal.path())).run(corpus);
  EXPECT_EQ(result.shard_apps, shard_app_count(corpus.apps.size(), 1, 3));

  auto read = support::read_journal(journal.path());
  ASSERT_TRUE(read.ok());
  const auto& records = read.value().records;
  ASSERT_EQ(records.size(), result.shard_apps + 1);  // meta + outcomes
  ASSERT_TRUE(support::is_shard_meta(records.front()));
  const auto meta = support::decode_shard_meta(records.front());
  EXPECT_EQ(meta.shard_index, 1u);
  EXPECT_EQ(meta.shard_count, 3u);
  EXPECT_EQ(meta.seed_base, kDefaultSeedBase);
  EXPECT_EQ(meta.corpus_size, corpus.apps.size());
  EXPECT_EQ(meta.outcome_codec_version, kOutcomeCodecVersion);
  // Every outcome record stays in the shard's residue class.
  for (std::size_t i = 1; i < records.size(); ++i) {
    ASSERT_FALSE(support::is_shard_meta(records[i]));
    EXPECT_EQ(decode_outcome(records[i]).index % 3, 1u);
  }
}

TEST(ShardMerge, UnshardedJournalLeadsWithShardZeroOfOneMetadata) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempFile journal("zero_of_one");
  RunnerConfig config;
  config.jobs = 1;
  config.journal_path = journal.path();
  (void)CorpusRunner(pipeline, config).run(corpus);
  auto read = support::read_journal(journal.path());
  ASSERT_TRUE(read.ok());
  const auto& records = read.value().records;
  ASSERT_EQ(records.size(), corpus.apps.size() + 1);
  ASSERT_TRUE(support::is_shard_meta(records.front()));
  const auto meta = support::decode_shard_meta(records.front());
  EXPECT_EQ(meta.shard_index, 0u);
  EXPECT_EQ(meta.shard_count, 1u);
  EXPECT_EQ(meta.seed_base, kDefaultSeedBase);
  EXPECT_EQ(meta.corpus_size, corpus.apps.size());
  EXPECT_EQ(meta.outcome_codec_version, kOutcomeCodecVersion);
  EXPECT_EQ(meta.config_fingerprint, config_fingerprint(pipeline).bytes);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_FALSE(support::is_shard_meta(records[i]));
  }
}

TEST(ShardMerge, MergedJournalLeadsWithMetadataAndPreservesBytes) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const std::size_t n = corpus.apps.size();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  std::vector<TempFile> journals;
  for (std::uint32_t i = 0; i < 2; ++i) {
    journals.emplace_back("preserve_s" + std::to_string(i));
  }
  run_shards(pipeline, corpus, journals, 1);

  // Index the shard journals' outcome payloads by global index.
  std::vector<support::Bytes> expected(n);
  support::ShardMeta shard_meta;
  for (const auto& journal : journals) {
    auto read = support::read_journal(journal.path());
    ASSERT_TRUE(read.ok());
    shard_meta = support::decode_shard_meta(read.value().records.front());
    for (std::size_t i = 1; i < read.value().records.size(); ++i) {
      const auto& record = read.value().records[i];
      expected[decode_outcome(record).index] = record.to_bytes();
    }
  }

  TempFile merged_out("preserve_merged");
  const auto merged =
      merge_shard_journals(merged_out.path(), journal_paths(journals));
  ASSERT_TRUE(merged.ok()) << merged.error();
  auto read = support::read_journal(merged_out.path());
  ASSERT_TRUE(read.ok());
  const auto& records = read.value().records;
  ASSERT_EQ(records.size(), n + 1);
  // The shards' metadata, restamped as shard 0/1: same seed base, corpus,
  // codec version and fingerprint.
  ASSERT_TRUE(support::is_shard_meta(records.front()));
  support::ShardMeta want = shard_meta;
  want.shard_index = 0;
  want.shard_count = 1;
  EXPECT_EQ(support::decode_shard_meta(records.front()), want);
  EXPECT_EQ(merged.value().meta, want);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& record = records[i + 1];
    ASSERT_FALSE(support::is_shard_meta(record));
    EXPECT_EQ(decode_outcome(record).index, i);  // ascending order
    EXPECT_EQ(record, expected[i]);              // verbatim bytes
  }
}

TEST(ShardMerge, DuplicateRecordsWithinAShardResolveLastWriterWins) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  std::vector<TempFile> journals;
  for (std::uint32_t i = 0; i < 2; ++i) {
    journals.emplace_back("dup_s" + std::to_string(i));
  }
  run_shards(pipeline, corpus, journals, 1);

  // Forge a newer record for app 0 (shard 0's residue class, correct seed
  // and job) — the artifact a kill-during-resume leaves behind.
  const auto shard0 =
      CorpusRunner(pipeline, shard_config(0, 2, "")).run(corpus);
  AppOutcome forged = shard0.outcomes[0];
  forged.report.package = "com.example.superseded.by.this";
  forged.job = job_digest(jobs_from_corpus(corpus)[0]);
  {
    auto writer = support::JournalWriter::open(journals[0].path());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().append(encode_outcome(0, forged)).ok());
  }

  TempFile merged_out("dup_merged");
  const auto merged =
      merge_shard_journals(merged_out.path(), journal_paths(journals));
  ASSERT_TRUE(merged.ok()) << merged.error();
  EXPECT_EQ(merged.value().duplicates_dropped, 1u);

  RunnerConfig replay_config;
  replay_config.jobs = 1;
  replay_config.journal_path = merged_out.path();
  replay_config.resume = true;
  const auto replayed = CorpusRunner(pipeline, replay_config).run(corpus);
  EXPECT_EQ(replayed.analyzed, 0u);
  EXPECT_EQ(replayed.outcomes[0].report.package,
            "com.example.superseded.by.this");
}

// ---------------------------------------------------------------------------
// Kill one shard mid-run, resume it, merge — back to golden.
// ---------------------------------------------------------------------------

TEST(ShardMerge, KilledShardResumesThenMergesToGolden) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const std::size_t n = corpus.apps.size();
  const core::DyDroid golden_pipeline{core::PipelineOptions{}};
  RunnerConfig golden_config;
  golden_config.jobs = 1;
  const auto golden =
      CorpusRunner(golden_pipeline, golden_config).run(corpus);
  const auto golden_json = report_jsons(golden);

  std::vector<TempFile> journals;
  for (std::uint32_t i = 0; i < 3; ++i) {
    journals.emplace_back("kill_s" + std::to_string(i));
  }
  // Each shard dies after its 35th outcome append, then resumes without
  // the kill plan: driver-level fault sites are not part of the config
  // fingerprint, so the fault-free resume accepts the journal, exactly as
  // an unsharded KillResume run does.
  const std::size_t k = 35;
  auto plan = support::FaultPlan::parse("driver.kill=nth:" +
                                        std::to_string(k));
  ASSERT_TRUE(plan.ok());
  core::PipelineOptions kill_options;
  kill_options.faults = &plan.value();
  const core::DyDroid kill_pipeline(std::move(kill_options));
  for (std::uint32_t i = 0; i < 3; ++i) {
    RunnerConfig config = shard_config(i, 3, journals[i].path());
    try {
      (void)CorpusRunner(kill_pipeline, config).run(corpus);
      FAIL() << "shard " << i << " was never killed — raise the corpus scale";
    } catch (const RunAborted& aborted) {
      EXPECT_EQ(aborted.journaled(), k);  // outcome records only
    }
    config.resume = true;
    const auto result = CorpusRunner(golden_pipeline, config).run(corpus);
    EXPECT_EQ(result.completed(), result.shard_apps);
    EXPECT_EQ(result.replayed, k);
    if (i == 0) {
      // With only one complete shard, merging fails loudly and points at
      // the missing shards.
      TempFile premature("kill_premature");
      expect_merge_failure(premature.path(),
                           {journals[0].path()},
                           "missing the journal for shard");
    }
  }
  // An artificially truncated shard (drop the tail record) fails the
  // coverage check and points at resuming that shard.
  {
    TempFile clipped("kill_clipped");
    auto read = support::read_journal(journals[1].path());
    ASSERT_TRUE(read.ok());
    // Re-journal all but the last record of shard 1 into a copy.
    {
      support::JournalWriterOptions options;
      options.truncate = true;
      auto writer = support::JournalWriter::open(clipped.path(), options);
      ASSERT_TRUE(writer.ok());
      for (std::size_t r = 0; r + 1 < read.value().records.size(); ++r) {
        ASSERT_TRUE(writer.value().append(read.value().records[r]).ok());
      }
    }
    TempFile premature("kill_premature2");
    expect_merge_failure(
        premature.path(),
        {journals[0].path(), clipped.path(), journals[2].path()},
        "resume that shard to completion");
  }

  // The killed-and-resumed shard journals hold golden-grade outcomes: the
  // driver.kill fault only ever fired at the driver's append boundary,
  // never inside an app's analysis.
  TempFile merged_out("kill_merged");
  const auto merged =
      merge_shard_journals(merged_out.path(), journal_paths(journals));
  ASSERT_TRUE(merged.ok()) << merged.error();

  RunnerConfig replay_config;
  replay_config.jobs = 2;
  replay_config.journal_path = merged_out.path();
  replay_config.resume = true;
  const auto replayed =
      CorpusRunner(golden_pipeline, replay_config).run(corpus);
  EXPECT_EQ(replayed.replayed, n);
  const auto replayed_json = report_jsons(replayed);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(replayed_json[i], golden_json[i]) << "app " << i;
  }
  expect_same_counts(replayed.stats, golden.stats);
}

// ---------------------------------------------------------------------------
// Loud merge failures: never a silent partial or wrong merge.
// ---------------------------------------------------------------------------

class ShardFailures : public testing::Test {
 protected:
  void SetUp() override {
    support::set_log_level(support::LogLevel::Error);
    corpus_ = small_corpus();
    for (std::uint32_t i = 0; i < 2; ++i) {
      journals_.emplace_back("fail_s" + std::to_string(i));
    }
    const core::DyDroid pipeline{core::PipelineOptions{}};
    run_shards(pipeline, corpus_, journals_, 1);
  }

  appgen::Corpus corpus_;
  std::vector<TempFile> journals_;
};

TEST_F(ShardFailures, EmptyInputFailsLoudly) {
  TempFile out("fail_empty");
  expect_merge_failure(out.path(), {}, "no shard journals given");
}

TEST_F(ShardFailures, MissingShardFailsLoudly) {
  TempFile out("fail_missing");
  expect_merge_failure(out.path(), {journals_[0].path()},
                       "missing the journal for shard 1/2");
}

TEST_F(ShardFailures, DuplicatedShardInputFailsLoudly) {
  TempFile out("fail_dupshard");
  expect_merge_failure(
      out.path(),
      {journals_[0].path(), journals_[1].path(), journals_[0].path()},
      "appears in more than one input journal");
}

TEST_F(ShardFailures, UnshardedJournalRejected) {
  // An unsharded journal is shard 0/1: it cannot stand in for shard 0 of
  // a two-shard campaign.
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempFile unsharded("fail_unsharded");
  RunnerConfig config;
  config.jobs = 1;
  config.journal_path = unsharded.path();
  (void)CorpusRunner(pipeline, config).run(corpus_);
  TempFile out("fail_unsharded_merged");
  expect_merge_failure(out.path(), {unsharded.path(), journals_[1].path()},
                       "metadata disagrees");
  expect_merge_failure(out.path(), {unsharded.path(), journals_[1].path()},
                       "shard 0/2 vs shard 0/1");
}

TEST_F(ShardFailures, ConfigFingerprintMismatchFailsLoudly) {
  // Re-run shard 1 through a differently configured pipeline (the retry
  // policy is part of the config fingerprint).
  core::PipelineOptions options;
  options.retry_on_crash = true;
  const core::DyDroid other(std::move(options));
  TempFile other_journal("fail_fingerprint");
  (void)CorpusRunner(other, shard_config(1, 2, other_journal.path()))
      .run(corpus_);
  TempFile out("fail_fingerprint_merged");
  expect_merge_failure(out.path(),
                       {journals_[0].path(), other_journal.path()},
                       "config fingerprint");
}

TEST_F(ShardFailures, SeedBaseMismatchFailsLoudly) {
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig config = shard_config(1, 2, "");
  TempFile other_journal("fail_seedbase");
  config.journal_path = other_journal.path();
  config.seed_base = kDefaultSeedBase + 1;
  (void)CorpusRunner(pipeline, config).run(corpus_);
  TempFile out("fail_seedbase_merged");
  expect_merge_failure(out.path(),
                       {journals_[0].path(), other_journal.path()},
                       "seed base");
}

TEST_F(ShardFailures, ShardCountMismatchFailsLoudly) {
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempFile other_journal("fail_count");
  (void)CorpusRunner(pipeline, shard_config(1, 3, other_journal.path()))
      .run(corpus_);
  TempFile out("fail_count_merged");
  expect_merge_failure(out.path(),
                       {journals_[0].path(), other_journal.path()},
                       "metadata disagrees");
}

TEST_F(ShardFailures, OverlappingResidueRecordFailsLoudly) {
  // Forge a record for app 1 (≡ 1 mod 2) into shard 0's journal: an
  // overlap between shards, even with the correct derived seed.
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig full_config;
  full_config.jobs = 1;
  const auto full = CorpusRunner(pipeline, full_config).run(corpus_);
  {
    auto writer = support::JournalWriter::open(journals_[0].path());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        writer.value().append(encode_outcome(1, full.outcomes[1])).ok());
  }
  TempFile out("fail_overlap_merged");
  expect_merge_failure(out.path(), journal_paths(journals_),
                       "does not belong to shard 0/2");
}

TEST_F(ShardFailures, OutOfRangeRecordFailsLoudly) {
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig full_config;
  full_config.jobs = 1;
  const auto full = CorpusRunner(pipeline, full_config).run(corpus_);
  AppOutcome forged = full.outcomes[0];
  const std::size_t bogus = corpus_.apps.size() + 2;  // even: shard 0's class
  forged.seed = seed_for_app(kDefaultSeedBase, bogus);
  {
    auto writer = support::JournalWriter::open(journals_[0].path());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        writer.value().append(encode_outcome(bogus, forged)).ok());
  }
  TempFile out("fail_range_merged");
  expect_merge_failure(out.path(), journal_paths(journals_),
                       "but the corpus has");
}

TEST_F(ShardFailures, FailedMergeNeverTouchesTheOutputPath) {
  TempFile out("fail_notouch");
  const std::vector<std::string> inputs = {journals_[0].path()};
  const auto merged = merge_shard_journals(out.path(), inputs);
  ASSERT_FALSE(merged.ok());
  // Validation failed before the output was opened: no file left behind.
  EXPECT_NE(::access(out.path().c_str(), F_OK), 0);
}

TEST_F(ShardFailures, NonJournalInputNamesItsPath) {
  // Among several inputs, the failure says which one is no journal.
  TempFile squatter("fail_notj");
  std::FILE* f = std::fopen(squatter.path().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a journal at all", f);
  std::fclose(f);
  TempFile out("fail_notj_merged");
  expect_merge_failure(out.path(), {journals_[0].path(), squatter.path()},
                       "journal: " + squatter.path() +
                           ": bad magic (not a journal file)");
}

// ---------------------------------------------------------------------------
// Resume validation: a journal only resumes under the exact shard and
// pipeline configuration that produced it.
// ---------------------------------------------------------------------------

void expect_run_failure(const core::DyDroid& pipeline,
                        const RunnerConfig& config,
                        const appgen::Corpus& corpus,
                        const std::string& needle) {
  try {
    (void)CorpusRunner(pipeline, config).run(corpus);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error was: " << e.what();
  }
}

TEST(ShardResume, ShardedJournalRefusesUnshardedResume) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempFile journal("resume_unsharded");
  (void)CorpusRunner(pipeline, shard_config(0, 2, journal.path()))
      .run(corpus);
  RunnerConfig config;
  config.jobs = 1;
  config.journal_path = journal.path();
  config.resume = true;
  expect_run_failure(pipeline, config, corpus,
                     "journal does not match this run: shard 0/2 vs shard "
                     "0/1");
}

TEST(ShardResume, ShardedJournalRefusesTheWrongShard) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempFile journal("resume_wrongshard");
  (void)CorpusRunner(pipeline, shard_config(0, 2, journal.path()))
      .run(corpus);
  RunnerConfig config = shard_config(1, 2, journal.path());
  config.resume = true;
  expect_run_failure(pipeline, config, corpus,
                     "journal does not match this run");
}

TEST(ShardResume, UnshardedJournalRefusesShardedResume) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempFile journal("resume_plain");
  RunnerConfig config;
  config.jobs = 1;
  config.journal_path = journal.path();
  (void)CorpusRunner(pipeline, config).run(corpus);
  RunnerConfig sharded = shard_config(0, 2, journal.path());
  sharded.resume = true;
  expect_run_failure(pipeline, sharded, corpus,
                     "journal does not match this run: shard 0/1 vs shard "
                     "0/2");
}

TEST(ShardResume, CompletedShardResumesAsANoOp) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempFile journal("resume_noop");
  const auto first =
      CorpusRunner(pipeline, shard_config(1, 2, journal.path())).run(corpus);
  RunnerConfig config = shard_config(1, 2, journal.path());
  config.resume = true;
  const auto resumed = CorpusRunner(pipeline, config).run(corpus);
  EXPECT_EQ(resumed.analyzed, 0u);
  EXPECT_EQ(resumed.replayed, first.shard_apps);
  EXPECT_FALSE(resumed.interrupted);
  // And the journal still holds exactly one metadata record (the resume
  // must not stamp a second one).
  auto read = support::read_journal(journal.path());
  ASSERT_TRUE(read.ok());
  std::size_t metas = 0;
  for (const auto& record : read.value().records) {
    if (support::is_shard_meta(record)) ++metas;
  }
  EXPECT_EQ(metas, 1u);
}

// ---------------------------------------------------------------------------
// One journal format: sharded, unsharded and merged journals all lead with
// their run's metadata, so every resume checks the configuration.
// ---------------------------------------------------------------------------

TEST(JournalFormat, UnshardedResumeUnderADifferentConfigurationThrows) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempFile journal("format_config");
  RunnerConfig config;
  config.jobs = 1;
  config.journal_path = journal.path();
  (void)CorpusRunner(pipeline, config).run(corpus);
  config.resume = true;

  auto plan = support::FaultPlan::parse("dex.parse=always");
  ASSERT_TRUE(plan.ok());
  core::PipelineOptions faulted;
  faulted.faults = &plan.value();
  core::PipelineOptions budgeted;
  budgeted.max_app_wall_ms = 60000.0;
  core::PipelineOptions retrying;
  retrying.retry_on_crash = true;
  for (core::PipelineOptions* options : {&faulted, &budgeted, &retrying}) {
    const core::DyDroid other(std::move(*options));
    expect_run_failure(other, config, corpus, "config fingerprint");
  }
  // Refused, not rewritten: the matching configuration replays it whole.
  const auto resumed = CorpusRunner(pipeline, config).run(corpus);
  EXPECT_EQ(resumed.replayed, corpus.apps.size());
  EXPECT_EQ(resumed.analyzed, 0u);
}

TEST(JournalFormat, MergedJournalResumedUnderADifferentConfigurationThrows) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  std::vector<TempFile> journals;
  for (std::uint32_t i = 0; i < 2; ++i) {
    journals.emplace_back("format_merge_s" + std::to_string(i));
  }
  run_shards(pipeline, corpus, journals, 1);
  TempFile merged_out("format_merged");
  const auto merged =
      merge_shard_journals(merged_out.path(), journal_paths(journals));
  ASSERT_TRUE(merged.ok()) << merged.error();

  RunnerConfig config;
  config.jobs = 1;
  config.journal_path = merged_out.path();
  config.resume = true;
  core::PipelineOptions options;
  options.retry_on_crash = true;
  const core::DyDroid other(std::move(options));
  expect_run_failure(other, config, corpus, "config fingerprint");
}

TEST(JournalFormat, UnshardedAndZeroOfOneRunsAreInterchangeable) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const std::size_t n = corpus.apps.size();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempFile unsharded("format_unsharded");
  TempFile zero_of_one("format_zero_of_one");
  RunnerConfig plain_config;
  plain_config.jobs = 1;
  plain_config.journal_path = unsharded.path();
  (void)CorpusRunner(pipeline, plain_config).run(corpus);
  RunnerConfig shard_zero = shard_config(0, 1, zero_of_one.path());
  (void)CorpusRunner(pipeline, shard_zero).run(corpus);

  auto plain_read = support::read_journal(unsharded.path());
  auto shard_read = support::read_journal(zero_of_one.path());
  ASSERT_TRUE(plain_read.ok());
  ASSERT_TRUE(shard_read.ok());
  ASSERT_FALSE(plain_read.value().records.empty());
  ASSERT_FALSE(shard_read.value().records.empty());
  ASSERT_TRUE(support::is_shard_meta(plain_read.value().records.front()));
  EXPECT_EQ(plain_read.value().records.front(),
            shard_read.value().records.front());

  // Each journal resumes under the other run's configuration.
  plain_config.journal_path = zero_of_one.path();
  plain_config.resume = true;
  EXPECT_EQ(CorpusRunner(pipeline, plain_config).run(corpus).replayed, n);
  shard_zero.journal_path = unsharded.path();
  shard_zero.resume = true;
  EXPECT_EQ(CorpusRunner(pipeline, shard_zero).run(corpus).replayed, n);
}

TEST(JournalFormat, JournalWithoutMetadataIsRefusedByResumeAndMerge) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig config;
  config.jobs = 1;
  const auto live = CorpusRunner(pipeline, config).run(corpus);

  // Outcome records only: the layout without a metadata record.
  TempFile bare("format_bare");
  {
    support::JournalWriterOptions options;
    options.truncate = true;
    auto writer = support::JournalWriter::open(bare.path(), options);
    ASSERT_TRUE(writer.ok());
    for (std::size_t i = 0; i < live.outcomes.size(); ++i) {
      ASSERT_TRUE(
          writer.value().append(encode_outcome(i, live.outcomes[i])).ok());
    }
  }
  config.journal_path = bare.path();
  config.resume = true;
  expect_run_failure(pipeline, config, corpus, "not a metadata record");
  TempFile out("format_bare_merged");
  expect_merge_failure(out.path(), {bare.path()}, "not a metadata record");
}

TEST(JournalFormat, JournalWithNoIntactRecordResumesAsAFreshRun) {
  // A run killed after the magic but before its metadata record leaves a
  // journal with no intact record: resuming it runs every app and stamps
  // the metadata first.
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempFile journal("format_empty");
  {
    support::JournalWriterOptions options;
    options.truncate = true;
    ASSERT_TRUE(support::JournalWriter::open(journal.path(), options).ok());
  }
  RunnerConfig config;
  config.jobs = 1;
  config.journal_path = journal.path();
  config.resume = true;
  const auto result = CorpusRunner(pipeline, config).run(corpus);
  EXPECT_EQ(result.analyzed, corpus.apps.size());
  EXPECT_EQ(result.replayed, 0u);
  auto read = support::read_journal(journal.path());
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().records.size(), corpus.apps.size() + 1);
  EXPECT_TRUE(support::is_shard_meta(read.value().records.front()));
}

// ---------------------------------------------------------------------------
// Validation boundaries: the seed-overflow and index-narrowing bugfixes.
// ---------------------------------------------------------------------------

TEST(ShardValidation, SeedOverflowBoundary) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // Empty and single-app corpora never wrap.
  static_assert(!seed_range_overflows(kMax, 0));
  static_assert(!seed_range_overflows(kMax, 1));
  // Exactly at the boundary: base + (count-1) == UINT64_MAX is fine...
  static_assert(!seed_range_overflows(kMax - 9, 10));
  // ...one more app wraps.
  static_assert(seed_range_overflows(kMax - 9, 11));
  static_assert(seed_range_overflows(kMax, 2));
  static_assert(!seed_range_overflows(0, kMax));

  RunnerConfig config;
  config.seed_base = kMax - 9;
  EXPECT_NO_THROW(validate_runner_config(config, 10));
  try {
    validate_runner_config(config, 11);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
        << e.what();
  }
}

TEST(ShardValidation, SeedOverflowIsCaughtBeforeAnyAppRuns) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig config;
  config.jobs = 1;
  config.seed_base = std::numeric_limits<std::uint64_t>::max() - 1;
  expect_run_failure(pipeline, config, corpus, "overflows");
}

TEST(ShardValidation, CorpusCeilingGuardsTheTraceContextNarrowing) {
  // Global indices thread through the u32 trace context; the validator
  // rejects any corpus whose indices could not survive the narrowing
  // (kTraceNoApp 0xFFFFFFFF is reserved as the no-app sentinel).
  RunnerConfig config;
  EXPECT_NO_THROW(validate_runner_config(config, kMaxCorpusApps));
  try {
    validate_runner_config(config, kMaxCorpusApps + 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ceiling"), std::string::npos)
        << e.what();
  }
}

TEST(ShardValidation, ShardFieldRejections) {
  RunnerConfig config;
  EXPECT_EQ(config.shard_count, 1u);  // unsharded is shard 0 of 1
  EXPECT_EQ(config.shard_index, 0u);
  EXPECT_NO_THROW(validate_runner_config(config, 10));
  config.shard_count = 0;  // one value means unsharded; 0 is not it
  try {
    validate_runner_config(config, 10);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shard count"), std::string::npos)
        << e.what();
  }
  config.shard_count = 1;
  config.shard_index = 1;  // out of range for the one shard
  EXPECT_THROW(validate_runner_config(config, 10), std::runtime_error);
  config.shard_count = 2;
  config.shard_index = 2;  // out of range
  EXPECT_THROW(validate_runner_config(config, 10), std::runtime_error);
  config.shard_index = 1;
  EXPECT_NO_THROW(validate_runner_config(config, 10));
}

TEST(ShardValidation, ShardAppCountPartitionsTheCorpus) {
  for (const std::uint64_t corpus : {0ull, 1ull, 7ull, 12ull, 100ull}) {
    EXPECT_EQ(shard_app_count(corpus, 0, 1), corpus);  // unsharded
    for (const std::uint32_t shards : {1u, 2u, 3u, 8u, 16u}) {
      std::uint64_t total = 0;
      for (std::uint32_t i = 0; i < shards; ++i) {
        total += shard_app_count(corpus, i, shards);
      }
      EXPECT_EQ(total, corpus) << "corpus=" << corpus
                               << " shards=" << shards;
    }
  }
  // More shards than apps: the high shards own nothing and their runs are
  // empty successes, not errors.
  EXPECT_EQ(shard_app_count(2, 5, 8), 0u);
}

TEST(ShardValidation, ShardWithNoAppsCompletesEmpty) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const std::uint32_t shards =
      static_cast<std::uint32_t>(corpus.apps.size()) + 3;
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempFile journal("emptyshard");
  const auto result =
      CorpusRunner(pipeline,
                   shard_config(shards - 1, shards, journal.path()))
          .run(corpus);
  EXPECT_EQ(result.shard_apps, 0u);
  EXPECT_EQ(result.analyzed, 0u);
  EXPECT_FALSE(result.interrupted);
}

}  // namespace
}  // namespace dydroid::driver
