// Fuzz suite for the result-cache persistence layer (docs/CACHE.md),
// mirroring journal_fuzz_test.cpp: structurally mutated cache store files
// must open (recovering a valid prefix of entries) or fail loudly on a
// destroyed magic — never crash, never serve a record that is not an
// original, never trip a sanitizer (tools/run_sanitizer_matrix.sh runs
// this suite under ASan/UBSan). The cache is advisory, so the bar is
// higher than the journal's: damaged *contents* must never fail the open.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "appgen/corpus.hpp"
#include "appgen/faulty.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/result_cache.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace dydroid::driver {
namespace {

constexpr int kIterations = 300;

using support::Bytes;

const support::Sha256Digest kFuzzConfig = support::sha256("fuzz-config");

struct SampleEntry {
  CacheKey key;
  std::string package;
};

/// Real cache entries: outcomes of a small corpus run keyed by synthetic
/// apk digests.
const std::vector<SampleEntry>& sample_entries() {
  static const std::vector<SampleEntry> entries = [] {
    support::set_log_level(support::LogLevel::Error);
    appgen::CorpusConfig config;
    config.scale = 0.002;
    const auto corpus = appgen::generate_corpus(config);
    const core::DyDroid pipeline{core::PipelineOptions{}};
    driver::RunnerConfig runner_config;
    runner_config.jobs = 2;
    const auto result =
        driver::CorpusRunner(pipeline, runner_config).run(corpus);
    std::vector<SampleEntry> out;
    out.reserve(result.outcomes.size());
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      SampleEntry entry;
      entry.key.apk = support::sha256("fuzz-app-" + std::to_string(i));
      entry.key.config = kFuzzConfig;
      entry.key.seed = result.outcomes[i].seed;
      entry.package = result.outcomes[i].report.package;
      out.push_back(std::move(entry));
    }
    return out;
  }();
  return entries;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = testing::TempDir() + "dydroid_cachefuzz_" + tag + "_" +
            std::to_string(::getpid());
    std::filesystem::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Bytes of a sealed store holding every sample entry.
Bytes sample_store_bytes() {
  static const Bytes bytes = [] {
    TempDir dir("seed");
    std::string store_path;
    {
      appgen::CorpusConfig config;
      config.scale = 0.002;
      const auto corpus = appgen::generate_corpus(config);
      const core::DyDroid pipeline{core::PipelineOptions{}};
      driver::RunnerConfig runner_config;
      runner_config.jobs = 2;
      const auto result =
          driver::CorpusRunner(pipeline, runner_config).run(corpus);
      auto opened = ResultCache::open(dir.path(), kFuzzConfig);
      EXPECT_TRUE(opened.ok());
      auto cache = std::move(opened).take();
      for (std::size_t i = 0; i < sample_entries().size(); ++i) {
        // The record names its key's job, as the runner's records do.
        AppOutcome outcome = result.outcomes[i];
        outcome.job = sample_entries()[i].key.apk;
        cache.insert(sample_entries()[i].key, outcome);
      }
      store_path = cache.store_path();
      EXPECT_TRUE(cache.seal().ok());
    }
    std::ifstream in(store_path, std::ios::binary);
    return Bytes((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }();
  return bytes;
}

/// Write `bytes` as DIR/results.dyc and open the cache over them.
support::Result<ResultCache> open_over(const TempDir& dir,
                                       const Bytes& bytes) {
  std::filesystem::create_directories(dir.path());
  const auto store =
      std::filesystem::path(dir.path()) / std::string(kCacheFileName);
  std::ofstream out(store, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  return ResultCache::open(dir.path(), kFuzzConfig);
}

TEST(CacheFuzz, MutatedStoreBytesOpenOrFailLoudly) {
  const Bytes intact = sample_store_bytes();
  {  // Sanity: the intact store replays every entry.
    TempDir dir("intact");
    auto opened = open_over(dir, intact);
    ASSERT_TRUE(opened.ok()) << opened.error();
    EXPECT_EQ(opened.value().stats().loaded, sample_entries().size());
  }
  support::set_log_level(support::LogLevel::Error);
  support::Rng rng(0x10021703);
  int opened_full = 0;
  int opened_partial = 0;
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    const auto mutated = appgen::mutate_bytes(intact, rng);
    TempDir dir("mut" + std::to_string(i));
    auto opened = open_over(dir, mutated);
    if (!opened.ok()) {
      // Only a destroyed magic may fail the open (the file is no longer
      // ours); damaged contents must always be recovered around.
      EXPECT_NE(opened.error().find("magic"), std::string::npos)
          << opened.error();
      ++rejected;
      continue;
    }
    auto cache = std::move(opened).take();
    const auto loaded = cache.stats().loaded;
    EXPECT_LE(loaded, sample_entries().size());
    if (loaded == sample_entries().size()) {
      ++opened_full;
    } else {
      ++opened_partial;
    }
    // Every surviving entry must be one of the originals: a lookup either
    // misses or replays a genuine outcome whose report serializes cleanly.
    for (const auto& entry : sample_entries()) {
      const auto hit = cache.lookup(entry.key);
      if (!hit.has_value()) continue;
      EXPECT_EQ(hit->report.package, entry.package);
      (void)core::report_to_json(hit->report);
    }
  }
  // Damaged-but-openable stores must actually occur across the iterations
  // (how often the magic itself is destroyed depends on the mutator).
  EXPECT_GT(opened_partial, 0);
  EXPECT_EQ(opened_full + opened_partial + rejected, kIterations);
}

TEST(CacheFuzz, DestroyedMagicFailsLoudly) {
  Bytes bytes = sample_store_bytes();
  ASSERT_GT(bytes.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) bytes[i] ^= 0xA5;
  TempDir dir("badmagic");
  auto opened = open_over(dir, bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.error().find("magic"), std::string::npos);
}

TEST(CacheFuzz, TruncatedStoreNeverLosesTheValidPrefix) {
  const Bytes intact = sample_store_bytes();
  support::set_log_level(support::LogLevel::Error);
  // Every truncation point (step 13 keeps the loop affordable): the open
  // must succeed with an exact prefix of the original entries — pre-magic
  // cuts yield an empty cache, never an error (a fresh store is empty too).
  for (std::size_t cut = 0; cut <= intact.size(); cut += 13) {
    const Bytes torn(intact.begin(), intact.begin() + static_cast<long>(cut));
    TempDir dir("cut" + std::to_string(cut));
    auto opened = open_over(dir, torn);
    if (!opened.ok()) {
      // A partial magic is indistinguishable from a foreign file.
      ASSERT_GT(cut, 0u);
      ASSERT_LT(cut, support::kJournalMagic.size()) << "cut " << cut;
      continue;
    }
    auto cache = std::move(opened).take();
    const auto loaded = cache.stats().loaded;
    ASSERT_LE(loaded, sample_entries().size());
    // The loaded prefix is exact: the first `loaded` keys hit, the rest
    // miss (insertion order is the on-disk order of a sealed store).
    std::size_t hits = 0;
    for (const auto& entry : sample_entries()) {
      const auto hit = cache.lookup(entry.key);
      if (hit.has_value()) {
        EXPECT_EQ(hit->report.package, entry.package);
        ++hits;
      }
    }
    EXPECT_EQ(hits, loaded) << "cut " << cut;
  }
}

TEST(CacheFuzz, MutationsNeverCorruptSubsequentRuns) {
  // End-to-end belt: a cache dir whose store was mutated must still serve
  // a full corpus run with byte-identical reports.
  support::set_log_level(support::LogLevel::Error);
  appgen::CorpusConfig config;
  config.scale = 0.002;
  const auto corpus = appgen::generate_corpus(config);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig golden_config;
  golden_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, golden_config).run(corpus);
  std::vector<std::string> golden_json;
  for (const auto& outcome : golden.outcomes) {
    golden_json.push_back(core::report_to_json(outcome.report));
  }

  TempDir dir("endtoend");
  RunnerConfig cached_config;
  cached_config.jobs = 2;
  cached_config.cache_dir = dir.path();
  (void)CorpusRunner(pipeline, cached_config).run(corpus);  // populate

  const auto store =
      std::filesystem::path(dir.path()) / std::string(kCacheFileName);
  support::Rng rng(0x10021704);
  for (int round = 0; round < 8; ++round) {
    Bytes bytes;
    {
      std::ifstream in(store, std::ios::binary);
      bytes.assign((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
    }
    const auto mutated = appgen::mutate_bytes(bytes, rng);
    {
      std::ofstream out(store, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(mutated.data()),
                static_cast<std::streamsize>(mutated.size()));
    }
    CorpusResult result;
    try {
      result = CorpusRunner(pipeline, cached_config).run(corpus);
    } catch (const std::runtime_error& e) {
      // Only the loud bad-magic failure is acceptable; reset the store.
      EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
          << e.what();
      // Reset to a fresh, repopulated store so the next round has real
      // bytes to mutate.
      std::filesystem::remove(store);
      (void)CorpusRunner(pipeline, cached_config).run(corpus);
      continue;
    }
    ASSERT_EQ(result.outcomes.size(), golden.outcomes.size());
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      ASSERT_EQ(core::report_to_json(result.outcomes[i].report),
                golden_json[i])
          << "round " << round << " app " << i;
    }
    EXPECT_EQ(result.stats.cache_hits + result.stats.cache_misses,
              corpus.apps.size());
  }
}

}  // namespace
}  // namespace dydroid::driver
