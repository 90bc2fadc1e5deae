// Content-addressed result cache (docs/CACHE.md): hit/miss semantics, LRU
// eviction order, config-fingerprint invalidation, corrupted-store
// recovery (skip-and-recompute, never crash), the crafted-FNV-collision
// identity regression, and the golden equivalence suite — cached and
// uncached corpus runs must produce byte-identical per-app reports at any
// worker count, with fault injection on and off, plus the journal+cache
// interplay (killed run resumed against a warm cache).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "appgen/corpus.hpp"
#include "appgen/generator.hpp"
#include "core/report_json.hpp"
#include "support/bytes.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/outcome_codec.hpp"
#include "driver/result_cache.hpp"
#include "driver/shard_merge.hpp"
#include "malware/droidnative.hpp"
#include "malware/families.hpp"
#include "support/fault.hpp"
#include "support/hash.hpp"
#include "support/io.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace dydroid::driver {
namespace {

class TempCacheDir {
 public:
  explicit TempCacheDir(const std::string& tag) {
    path_ = testing::TempDir() + "dydroid_cache_" + tag + "_" +
            std::to_string(::getpid());
    std::filesystem::remove_all(path_);
  }
  ~TempCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class TempJournal {
 public:
  explicit TempJournal(const std::string& tag) {
    path_ = testing::TempDir() + "dydroid_cachejr_" + tag + "_" +
            std::to_string(::getpid()) + ".jrnl";
    std::remove(path_.c_str());
  }
  ~TempJournal() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

const support::Sha256Digest kTestConfig = support::sha256("test-config-A");

CacheKey key_of(std::string_view apk_tag, std::uint64_t seed = 0,
                const support::Sha256Digest& config = kTestConfig) {
  CacheKey key;
  key.apk = support::sha256(apk_tag);
  key.config = config;
  key.seed = seed;
  return key;
}

/// An outcome that names `key`'s job and seed, as every outcome the runner
/// inserts does: the store keys each record on them at the next open.
AppOutcome make_outcome(const std::string& package, const CacheKey& key) {
  AppOutcome outcome;
  outcome.report.package = package;
  outcome.seed = key.seed;
  outcome.job = key.apk;
  outcome.wall_ms = 1.25;
  outcome.attempts = 1;
  outcome.completed = true;
  return outcome;
}

ResultCache open_or_die(const std::string& dir,
                        const support::Sha256Digest& config = kTestConfig,
                        CacheConfig cache_config = {}) {
  auto opened = ResultCache::open(dir, config, cache_config);
  EXPECT_TRUE(opened.ok()) << opened.error();
  return std::move(opened).take();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

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

/// Measurement stats must agree between cached and uncached runs; the
/// cache_hits/cache_misses provenance counters intentionally differ.
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
// Store semantics: hit/miss, persistence, LRU, invalidation, recovery.
// ---------------------------------------------------------------------------

TEST(ResultCache, HitMissSemanticsAndPersistence) {
  TempCacheDir dir("hitmiss");
  const auto key = key_of("app-one", 42);
  {
    auto cache = open_or_die(dir.path());
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.lookup(key).has_value());
    cache.insert(key, make_outcome("com.example.one", key));
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->report.package, "com.example.one");
    EXPECT_EQ(hit->seed, 42u);
    EXPECT_TRUE(hit->completed);
    EXPECT_FALSE(hit->replayed);   // a cache hit is not a journal replay
    EXPECT_FALSE(hit->cache_hit);  // provenance is stamped by the runner
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_TRUE(cache.seal().ok());
  }
  // The entry survives a close/reopen cycle.
  auto cache = open_or_die(dir.path());
  EXPECT_EQ(cache.stats().loaded, 1u);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->report.package, "com.example.one");
  // A different seed on the same bytes+config is a different identity.
  EXPECT_FALSE(cache.lookup(key_of("app-one", 43)).has_value());
}

TEST(ResultCache, SealCompactionFsyncsTheParentDirectory) {
  // Seal-time compaction swaps the store via an atomic rename; the rename
  // is only crash-durable once the directory itself is fsynced. dir_fsyncs()
  // proves the path actually ran on a dirty seal.
  TempCacheDir dir("dirsync");
  auto cache = open_or_die(dir.path());
  // An overwrite dirties the store: the superseded frame must be compacted
  // away at seal time, which is what triggers the rename + directory sync.
  const auto key = key_of("app", 1);
  cache.insert(key, make_outcome("com.example.v1", key));
  cache.insert(key, make_outcome("com.example.v2", key));
  const std::uint64_t before = support::dir_fsyncs();
  ASSERT_TRUE(cache.seal().ok());
  EXPECT_GT(support::dir_fsyncs(), before);
}

TEST(ResultCache, OverwriteIsLastWriterWins) {
  TempCacheDir dir("overwrite");
  const auto key = key_of("app", 1);
  {
    auto cache = open_or_die(dir.path());
    cache.insert(key, make_outcome("com.example.v1", key));
    cache.insert(key, make_outcome("com.example.v2", key));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.lookup(key)->report.package, "com.example.v2");
  }
  // Reopen: the duplicate frames on disk resolve last-writer-wins, and the
  // seal-time compaction has collapsed them to one.
  auto cache = open_or_die(dir.path());
  EXPECT_EQ(cache.stats().loaded, 1u);
  EXPECT_EQ(cache.lookup(key)->report.package, "com.example.v2");
  auto read = support::read_journal(cache.store_path());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().records.size(), 2u);  // metadata + the one entry
}

TEST(ResultCache, LruEvictionOrderAndRecencyAcrossReopen) {
  TempCacheDir dir("lru");
  CacheConfig bounds;
  bounds.max_entries = 3;
  const auto k1 = key_of("a"), k2 = key_of("b"), k3 = key_of("c"),
             k4 = key_of("d");
  {
    auto cache = open_or_die(dir.path(), kTestConfig, bounds);
    cache.insert(k1, make_outcome("com.a", k1));
    cache.insert(k2, make_outcome("com.b", k2));
    cache.insert(k3, make_outcome("com.c", k3));
    EXPECT_EQ(cache.lru_order(), (std::vector<CacheKey>{k1, k2, k3}));
    // A hit refreshes recency: k1 moves off the chopping block...
    ASSERT_TRUE(cache.lookup(k1).has_value());
    EXPECT_EQ(cache.lru_order(), (std::vector<CacheKey>{k2, k3, k1}));
    // ...so the next insert evicts k2, the least recently used.
    cache.insert(k4, make_outcome("com.d", k4));
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.lru_order(), (std::vector<CacheKey>{k3, k1, k4}));
    EXPECT_FALSE(cache.lookup(k2).has_value());
  }
  // Compaction wrote the survivors in LRU order: recency survives reopen.
  auto cache = open_or_die(dir.path(), kTestConfig, bounds);
  EXPECT_EQ(cache.stats().loaded, 3u);
  EXPECT_EQ(cache.lru_order(), (std::vector<CacheKey>{k3, k1, k4}));
}

TEST(ResultCache, HitRecencySurvivesAReopenWithoutEviction) {
  // A run whose only event is a hit still moves the entry on disk: the
  // next run of a bounded store evicts by the recency this one left.
  TempCacheDir dir("hit_recency");
  CacheConfig bounds;
  bounds.max_entries = 3;
  const auto k1 = key_of("a"), k2 = key_of("b"), k3 = key_of("c"),
             k4 = key_of("d");
  {
    auto cache = open_or_die(dir.path(), kTestConfig, bounds);
    cache.insert(k1, make_outcome("com.a", k1));
    cache.insert(k2, make_outcome("com.b", k2));
    cache.insert(k3, make_outcome("com.c", k3));
  }
  {
    auto cache = open_or_die(dir.path(), kTestConfig, bounds);
    ASSERT_TRUE(cache.lookup(k1).has_value());
    EXPECT_EQ(cache.stats().evictions, 0u);
  }
  auto cache = open_or_die(dir.path(), kTestConfig, bounds);
  EXPECT_EQ(cache.lru_order(), (std::vector<CacheKey>{k2, k3, k1}));
  cache.insert(k4, make_outcome("com.d", k4));
  EXPECT_EQ(cache.lru_order(), (std::vector<CacheKey>{k3, k1, k4}));
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_FALSE(cache.lookup(k2).has_value());
}

TEST(ResultCache, UnboundedHitsLeaveTheStoreFileAlone) {
  // An unbounded store never evicts, so recency has no use on disk: a run
  // of hits seals with the journal's fsync alone, no compaction rewrite.
  TempCacheDir dir("unbounded_hits");
  const auto k1 = key_of("a"), k2 = key_of("b");
  std::string store_path;
  {
    auto cache = open_or_die(dir.path());
    cache.insert(k1, make_outcome("com.a", k1));
    cache.insert(k2, make_outcome("com.b", k2));
    store_path = cache.store_path();
  }
  const auto before = file_bytes(store_path);
  auto cache = open_or_die(dir.path());
  ASSERT_TRUE(cache.lookup(k1).has_value());
  EXPECT_EQ(cache.lru_order(), (std::vector<CacheKey>{k2, k1}));
  const std::uint64_t dir_syncs = support::dir_fsyncs();
  ASSERT_TRUE(cache.seal().ok());
  EXPECT_EQ(support::dir_fsyncs(), dir_syncs);
  EXPECT_EQ(file_bytes(store_path), before);
}

TEST(ResultCache, ByteBoundEvicts) {
  TempCacheDir dir("bytes");
  const auto probe = encode_outcome(0, make_outcome("com.probe", key_of("a")));
  CacheConfig bounds;
  bounds.max_bytes = probe.size() * 2 + probe.size() / 2;  // fits 2, not 3
  auto cache = open_or_die(dir.path(), kTestConfig, bounds);
  cache.insert(key_of("a"), make_outcome("com.probe", key_of("a")));
  cache.insert(key_of("b"), make_outcome("com.probe", key_of("b")));
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.insert(key_of("c"), make_outcome("com.probe", key_of("c")));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.payload_bytes(), bounds.max_bytes);
}

TEST(ResultCache, StaleConfigFingerprintInvalidatesLoudly) {
  TempCacheDir dir("invalidate");
  const auto fp_b = support::sha256("test-config-B");
  {
    auto cache = open_or_die(dir.path());  // fingerprint A
    cache.insert(key_of("a"), make_outcome("com.a", key_of("a")));
    cache.insert(key_of("b"), make_outcome("com.b", key_of("b")));
  }
  {
    // A semantic config change: every entry drops, none served stale.
    testing::internal::CaptureStderr();
    auto cache = open_or_die(dir.path(), fp_b);
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_NE(warning.find("invalidated 2 entries"), std::string::npos);
    EXPECT_NE(warning.find(fp_b.hex()), std::string::npos);
    EXPECT_EQ(cache.stats().invalidated, 2u);
    EXPECT_EQ(cache.stats().loaded, 0u);
    EXPECT_FALSE(
        cache.lookup(key_of("a", 0, fp_b)).has_value());
    const auto key = key_of("c", 0, fp_b);
    cache.insert(key, make_outcome("com.c", key));
  }
  // The stale frames were compacted away; the new-config entry remains.
  auto cache = open_or_die(dir.path(), fp_b);
  EXPECT_EQ(cache.stats().loaded, 1u);
  EXPECT_EQ(cache.stats().invalidated, 0u);
  ASSERT_TRUE(cache.lookup(key_of("c", 0, fp_b)).has_value());
}

TEST(ResultCache, DriverLevelFaultSitesAreNotFingerprinted) {
  // journal.append, driver.kill, cache.read and cache.write abort or
  // degrade a run but never change a report, so a plan arming only them
  // fingerprints like no plan; a site that moves reports still counts.
  const auto fingerprint_of = [](const std::string& plan_text) {
    support::FaultPlan plan;  // outlives the pipeline below
    core::PipelineOptions options;
    if (!plan_text.empty()) {
      auto parsed = support::FaultPlan::parse(plan_text);
      EXPECT_TRUE(parsed.ok()) << plan_text;
      plan = parsed.value();
      options.faults = &plan;
    }
    return config_fingerprint(core::DyDroid(std::move(options)));
  };
  const auto unfaulted = fingerprint_of("");
  EXPECT_EQ(fingerprint_of("journal.append=nth:3,driver.kill=nth:40,"
                           "cache.read=p:0.5,cache.write=always"),
            unfaulted);
  EXPECT_EQ(fingerprint_of("driver.kill=nth:1"), unfaulted);
  const auto dex_parse = fingerprint_of("dex.parse=always");
  EXPECT_NE(dex_parse, unfaulted);
  EXPECT_EQ(fingerprint_of("dex.parse=always,driver.kill=nth:40"), dex_parse);
}

TEST(ResultCache, DetectorIsFingerprintedByWhatItLearned) {
  // Two detectors with the same threshold, families and sample count but
  // different samples judge payloads differently, so they must not share
  // cache entries or resume each other's journals.
  const auto trained = [](std::uint64_t seed) {
    malware::DroidNative detector(0.9);
    support::Rng rng(seed);
    for (int f = 0; f < malware::kNumFamilies; ++f) {
      const auto family = malware::family_at(f);
      for (const auto& sample :
           malware::generate_training_samples(family, 2, rng)) {
        detector.train(malware::family_name(family), sample);
      }
    }
    return detector;
  };
  const auto fingerprint_with = [](const malware::DroidNative& detector) {
    core::PipelineOptions options;
    options.detector = &detector;
    return config_fingerprint(core::DyDroid(std::move(options)));
  };
  const auto first = trained(1);
  const auto second = trained(2);
  ASSERT_EQ(first.threshold(), second.threshold());
  ASSERT_EQ(first.families(), second.families());
  ASSERT_EQ(first.training_size(), second.training_size());
  EXPECT_NE(fingerprint_with(first), fingerprint_with(second));
  EXPECT_EQ(fingerprint_with(first), fingerprint_with(trained(1)));
}

TEST(ResultCache, TornTailIsRecoveredNotFatal) {
  TempCacheDir dir("torn");
  std::string store;
  {
    auto cache = open_or_die(dir.path());
    cache.insert(key_of("a"), make_outcome("com.a", key_of("a")));
    cache.insert(key_of("b"), make_outcome("com.b", key_of("b")));
    store = cache.store_path();
  }
  {  // Tear the tail: half a fake frame of garbage after the real records.
    std::ofstream out(store, std::ios::binary | std::ios::app);
    const char garbage[] = "\x40\x00\x00\x00torn-frame";
    out.write(garbage, sizeof(garbage) - 1);
  }
  testing::internal::CaptureStderr();
  auto cache = open_or_die(dir.path());
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("torn tail"), std::string::npos);
  EXPECT_TRUE(cache.stats().torn_tail);
  EXPECT_EQ(cache.stats().loaded, 2u);  // intact prefix fully recovered
  EXPECT_TRUE(cache.lookup(key_of("a")).has_value());
  EXPECT_TRUE(cache.lookup(key_of("b")).has_value());
}

TEST(ResultCache, CorruptedMidFileRecordDropsTheSuffixNotTheRun) {
  TempCacheDir dir("corrupt");
  std::string store;
  std::uintmax_t after_first = 0;
  {
    auto cache = open_or_die(dir.path());
    cache.insert(key_of("a"), make_outcome("com.a", key_of("a")));
    (void)cache.seal();
    after_first = std::filesystem::file_size(cache.store_path());
    store = cache.store_path();
  }
  {
    auto cache = open_or_die(dir.path());
    cache.insert(key_of("b"), make_outcome("com.b", key_of("b")));
    cache.insert(key_of("c"), make_outcome("com.c", key_of("c")));
  }
  {  // Flip one byte inside the second record's frame.
    std::fstream f(store, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(after_first) + 8);
    const char flip = '\xff';
    f.write(&flip, 1);
  }
  // Journal-style recovery stops at the first damaged frame: record "a"
  // survives, "b"/"c" recompute. Never a crash, never a failed open.
  auto cache = open_or_die(dir.path());
  EXPECT_TRUE(cache.stats().torn_tail);
  EXPECT_EQ(cache.stats().loaded, 1u);
  EXPECT_TRUE(cache.lookup(key_of("a")).has_value());
  EXPECT_FALSE(cache.lookup(key_of("b")).has_value());
  EXPECT_FALSE(cache.lookup(key_of("c")).has_value());
}

TEST(ResultCache, ForeignFileMagicFailsLoudly) {
  TempCacheDir dir("magic");
  std::filesystem::create_directories(dir.path());
  const std::string store =
      (std::filesystem::path(dir.path()) / kCacheFileName).string();
  // A store from an older build (its own "DYCACH01" magic) and a file that
  // is no journal at all: neither is a store, both fail the open naming
  // the path once and saying to delete it, and both are left as they were.
  for (const std::string& squatter :
       {std::string("DYCACH01") + std::string(24, '\x01'),
        std::string("not a journal")}) {
    {
      std::ofstream out(store, std::ios::binary | std::ios::trunc);
      out << squatter;
    }
    auto opened = ResultCache::open(dir.path(), kTestConfig);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.error().find("magic"), std::string::npos);
    const auto named = opened.error().find(store);
    ASSERT_NE(named, std::string::npos);
    EXPECT_EQ(opened.error().find(store, named + 1), std::string::npos);
    EXPECT_NE(opened.error().find("delete"), std::string::npos);
    EXPECT_EQ(file_bytes(store), squatter);
  }
}

// ---------------------------------------------------------------------------
// Identity: SHA-256, never FNV-1a. Two inputs crafted to collide under
// fnv1a64 (see tests/support_test.cpp for the pair's provenance) must land
// in distinct cache entries — the weak-fingerprint regression of ISSUE 7.
// ---------------------------------------------------------------------------

TEST(ResultCache, CraftedFnvCollisionLandsInDistinctEntries) {
  const std::string apk_a = std::string("adhkfmajpgmp") + '\x61';
  const std::string apk_b = std::string("dknbajjdhieb") + '\x17';
  ASSERT_EQ(support::fnv1a64(apk_a), support::fnv1a64(apk_b));
  ASSERT_NE(apk_a, apk_b);

  TempCacheDir dir("collision");
  auto cache = open_or_die(dir.path());
  CacheKey key_a = key_of(apk_a, 9);
  CacheKey key_b = key_of(apk_b, 9);
  EXPECT_NE(key_a, key_b);  // sha256 keeps the identities apart
  cache.insert(key_a, make_outcome("com.example.first", key_a));
  cache.insert(key_b, make_outcome("com.example.second", key_b));
  EXPECT_EQ(cache.size(), 2u);
  // Neither entry shadows the other: each set of bytes replays its own
  // result, not its FNV twin's.
  EXPECT_EQ(cache.lookup(key_a)->report.package, "com.example.first");
  EXPECT_EQ(cache.lookup(key_b)->report.package, "com.example.second");
}

// ---------------------------------------------------------------------------
// Concurrency: lookup decodes outside the cache lock (docs/CACHE.md §9).
// Run under -DDYDROID_TSAN=ON to check the unlocked decode for races.
// ---------------------------------------------------------------------------

TEST(ResultCache, ConcurrentHitsOverwritesAndAnUndecodableEntry) {
  TempCacheDir dir("concurrent");
  constexpr std::size_t kKeys = 8;
  std::vector<CacheKey> keys;
  std::vector<AppOutcome> inserted;
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back(key_of("app-" + std::to_string(i), i));
    inserted.push_back(
        make_outcome("com.example.c" + std::to_string(i), keys.back()));
  }
  const CacheKey bad = key_of("undecodable", 99);
  std::string store;
  {
    auto cache = open_or_die(dir.path());
    for (std::size_t i = 0; i < kKeys; ++i) cache.insert(keys[i], inserted[i]);
    store = cache.store_path();
  }
  {  // A CRC-intact outcome record whose header reads but whose report is
     // cut short: it loads at open and fails only when a lookup decodes it.
    support::Bytes record = encode_outcome(0, make_outcome("com.bad", bad));
    record.pop_back();
    auto writer = support::JournalWriter::open(store);
    ASSERT_TRUE(writer.ok()) << writer.error();
    ASSERT_TRUE(writer.value().append(record).ok());
  }
  auto cache = open_or_die(dir.path());
  ASSERT_EQ(cache.stats().loaded, kKeys + 1);

  std::vector<std::string> want_json;
  for (const auto& outcome : inserted) {
    want_json.push_back(core::report_to_json(outcome.report));
  }
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 150;
  std::atomic<std::size_t> good_lookups{0};
  std::atomic<std::size_t> bad_lookups{0};
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::size_t> bad_hits{0};
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t round = 0; round < kRounds; ++round) {
          // Every thread races for the undecodable entry first.
          ++bad_lookups;
          if (cache.lookup(bad).has_value()) ++bad_hits;
          for (std::size_t j = 0; j < kKeys; ++j) {
            const std::size_t i = (j + t) % kKeys;
            ++good_lookups;
            const auto hit = cache.lookup(keys[i]);
            if (!hit.has_value() || hit->seed != inserted[i].seed ||
                !hit->completed ||
                core::report_to_json(hit->report) != want_json[i]) {
              ++wrong;
            }
            cache.insert(keys[i], inserted[i]);  // overwrite, same report
          }
        }
      });
    }
  }
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(bad_hits.load(), 0u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, good_lookups + bad_lookups);
  EXPECT_EQ(stats.hits, good_lookups.load());
  EXPECT_EQ(stats.misses, bad_lookups.load());
  // The bad entry was dropped exactly once, whichever thread lost the race.
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(cache.size(), kKeys);
  const auto order = cache.lru_order();
  EXPECT_EQ(std::count(order.begin(), order.end(), bad), 0);
  ASSERT_TRUE(cache.seal().ok());

  // The compacted store holds the eight good entries and nothing else.
  auto reopened = open_or_die(dir.path());
  EXPECT_EQ(reopened.stats().loaded, kKeys);
  EXPECT_EQ(reopened.stats().skipped, 0u);
  EXPECT_FALSE(reopened.lookup(bad).has_value());
}

// ---------------------------------------------------------------------------
// Golden equivalence: cached and uncached corpus runs are byte-identical —
// at 1/2/8 workers, cold and warm, with fault injection off and on.
// ---------------------------------------------------------------------------

TEST(CacheEquivalence, CachedRunsMatchUncachedAtAnyWorkerCount) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const std::size_t n = corpus.apps.size();
  ASSERT_GT(n, 10u);

  for (const bool faults_on : {false, true}) {
    auto plan = support::FaultPlan::parse("device.boot=p:0.3");
    ASSERT_TRUE(plan.ok());
    core::PipelineOptions options;
    if (faults_on) options.faults = &plan.value();
    const core::DyDroid pipeline(std::move(options));

    RunnerConfig golden_config;
    golden_config.jobs = 1;
    const auto golden = CorpusRunner(pipeline, golden_config).run(corpus);
    const auto golden_json = report_jsons(golden);

    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      TempCacheDir dir("equiv_f" + std::to_string(faults_on) + "_w" +
                       std::to_string(workers));
      RunnerConfig config;
      config.jobs = workers;
      config.cache_dir = dir.path();

      // Cold: every app analyzed and inserted.
      const auto cold = CorpusRunner(pipeline, config).run(corpus);
      EXPECT_EQ(cold.stats.cache_hits, 0u);
      EXPECT_EQ(cold.stats.cache_misses, n);
      const auto cold_json = report_jsons(cold);
      ASSERT_EQ(cold_json.size(), golden_json.size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(cold_json[i], golden_json[i])
            << "cold faults=" << faults_on << " workers=" << workers
            << " app=" << i;
      }
      expect_same_counts(cold.stats, golden.stats);

      // Warm: every app served from the store, still byte-identical.
      const auto warm = CorpusRunner(pipeline, config).run(corpus);
      EXPECT_EQ(warm.stats.cache_hits, n);
      EXPECT_EQ(warm.stats.cache_misses, 0u);
      const auto warm_json = report_jsons(warm);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(warm_json[i], golden_json[i])
            << "warm faults=" << faults_on << " workers=" << workers
            << " app=" << i;
      }
      expect_same_counts(warm.stats, golden.stats);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(warm.outcomes[i].cache_hit);
        EXPECT_EQ(warm.outcomes[i].seed, seed_for_app(kDefaultSeedBase, i));
      }
    }
  }
}

TEST(CacheEquivalence, ScenarioIsPartOfTheKey) {
  // One remote-loading app, one seed, two servers: the hosted payload is
  // an input of the analysis, so each scenario gets its own entry and its
  // own report.
  support::set_log_level(support::LogLevel::Error);
  appgen::AppSpec spec;
  spec.package = "com.cache.remote";
  spec.category = "Tools";
  spec.baidu_remote_sdk = true;
  support::Rng rng(31);
  const auto app = appgen::build_app(spec, rng);
  ASSERT_EQ(app.scenario.hosted_urls.size(), 1u);
  spec.package = "com.cache.other";
  spec.baidu_remote_sdk = false;
  spec.own_dex_dcl = true;
  const auto other = appgen::build_app(spec, rng);

  std::vector<AppJob> jobs(2);
  for (auto& job : jobs) {
    job.apk = app.apk;
    job.seed = 5;
  }
  jobs[0].scenario = app.scenario;
  jobs[1].scenario.hosted_urls.emplace_back(
      app.scenario.hosted_urls[0].first, other.apk);
  EXPECT_NE(job_digest(jobs[0]), job_digest(jobs[1]));
  // A scenario-free job whose APK ends in the scenario's encoding keys
  // apart from the job that carries that scenario: the package parser
  // ignores trailing bytes, so that APK runs with no scenario at all.
  support::ByteWriter crafted;
  crafted.raw(app.apk);
  jobs[0].scenario.encode(crafted);
  AppJob bare;
  bare.apk = support::Blob::take(crafted.take());
  EXPECT_NE(job_digest(bare), job_digest(jobs[0]));

  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig plain;
  plain.jobs = 1;
  const auto golden_json = report_jsons(CorpusRunner(pipeline, plain).run(jobs));
  ASSERT_NE(golden_json[0], golden_json[1]);

  TempCacheDir dir("scenario_key");
  RunnerConfig config;
  config.jobs = 1;
  config.cache_dir = dir.path();
  const auto cold = CorpusRunner(pipeline, config).run(jobs);
  EXPECT_EQ(cold.stats.cache_misses, 2u);
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_EQ(report_jsons(cold), golden_json);
  EXPECT_EQ(open_or_die(dir.path(), config_fingerprint(pipeline)).size(), 2u);

  const auto warm = CorpusRunner(pipeline, config).run(jobs);
  EXPECT_EQ(warm.stats.cache_hits, 2u);
  EXPECT_EQ(warm.stats.cache_misses, 0u);
  EXPECT_EQ(report_jsons(warm), golden_json);
}

TEST(CacheEquivalence, CacheFaultInjectionDegradesWithoutChangingReports) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const std::size_t n = corpus.apps.size();

  const core::DyDroid golden_pipeline{core::PipelineOptions{}};
  RunnerConfig golden_config;
  golden_config.jobs = 1;
  const auto golden = CorpusRunner(golden_pipeline, golden_config).run(corpus);
  const auto golden_json = report_jsons(golden);

  // Half of all cache reads and writes fail. The cache is advisory: the
  // run must produce byte-identical reports, just with fewer hits.
  auto plan = support::FaultPlan::parse("cache.read=p:0.5,cache.write=p:0.5");
  ASSERT_TRUE(plan.ok());
  core::PipelineOptions options;
  options.faults = &plan.value();
  const core::DyDroid pipeline(std::move(options));

  TempCacheDir dir("cachefaults");
  RunnerConfig config;
  config.jobs = 2;
  config.cache_dir = dir.path();
  const auto cold = CorpusRunner(pipeline, config).run(corpus);
  const auto warm = CorpusRunner(pipeline, config).run(corpus);
  for (const auto* run : {&cold, &warm}) {
    const auto json = report_jsons(*run);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(json[i], golden_json[i]) << "app " << i;
    }
    EXPECT_EQ(run->stats.cache_hits + run->stats.cache_misses, n);
  }
  // The injected write failures dropped entries, so the warm run cannot be
  // all hits — and read faults surface as misses, never as errors.
  EXPECT_GT(warm.stats.cache_hits, 0u);
  EXPECT_GT(warm.stats.cache_misses, 0u);
  EXPECT_GT(cold.cache_write_failures, 0u);
}

// ---------------------------------------------------------------------------
// Corpus-wide binary dedup (the paper's apps-vs-unique-binaries table).
// ---------------------------------------------------------------------------

TEST(CacheEquivalence, DedupStatsAndBlobStoreAreConsistent) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus(0.003);
  const core::DyDroid pipeline{core::PipelineOptions{}};

  TempCacheDir dir("dedup");
  RunnerConfig config;
  config.jobs = 2;
  config.cache_dir = dir.path();
  const auto cold = CorpusRunner(pipeline, config).run(corpus);

  const auto& dedup = cold.dedup;
  ASSERT_GT(dedup.total, 0u) << "corpus intercepted no binaries";
  EXPECT_EQ(dedup.total, cold.stats.binaries);
  EXPECT_LE(dedup.unique, dedup.total);
  EXPECT_EQ(dedup.unique_dex + dedup.unique_native, dedup.unique);
  EXPECT_GE(dedup.max_reuse, 1u);
  EXPECT_LE(dedup.unique_bytes, dedup.total_bytes);
  EXPECT_EQ(dedup.duplicate_bytes(), dedup.total_bytes - dedup.unique_bytes);

  // Unique payloads persisted content-addressed, one blob per digest.
  EXPECT_EQ(dedup.blobs_written, dedup.unique);
  std::size_t blob_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(dir.path()) / "blobs")) {
    ++blob_files;
    EXPECT_EQ(entry.path().extension(), ".bin");
    // Content-addressed: the file's digest is its name.
    std::ifstream in(entry.path(), std::ios::binary);
    const support::Bytes bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    EXPECT_EQ(support::sha256(bytes).hex() + ".bin",
              entry.path().filename().string());
  }
  EXPECT_EQ(blob_files, dedup.unique);

  // A warm re-run finds every blob already stored and rewrites none, and
  // an uncached run computes the same table without persisting anything.
  const auto warm = CorpusRunner(pipeline, config).run(corpus);
  EXPECT_EQ(warm.dedup.unique, dedup.unique);
  EXPECT_EQ(warm.dedup.blobs_written, 0u);
  RunnerConfig plain;
  plain.jobs = 2;
  const auto uncached = CorpusRunner(pipeline, plain).run(corpus);
  EXPECT_EQ(uncached.dedup.unique, dedup.unique);
  EXPECT_EQ(uncached.dedup.total, dedup.total);
  EXPECT_EQ(uncached.dedup.blobs_written, 0u);
}

TEST(CacheEquivalence, BlobStoreWritesOnlyWhatItsDirectoryLacks) {
  // The store lists blobs/ once: a second store over the same directory
  // finds every payload listed and writes none, and a blob deleted since
  // is missing from the next listing and written again.
  TempCacheDir dir("blob_listing");
  const std::string blobs = dir.path() + "/blobs";
  std::vector<core::BinaryReport> binaries;
  for (const std::string_view text : {"dex one", "dex two", "native three"}) {
    core::BinaryReport& binary = binaries.emplace_back();
    binary.binary.kind = text.starts_with("native") ? core::CodeKind::Native
                                                    : core::CodeKind::Dex;
    binary.binary.set_bytes(support::Blob::of_string(text));
  }
  const auto written = [&] {
    BinaryDedupStore store(blobs);
    store.absorb(binaries);
    return store.stats().blobs_written;
  };
  EXPECT_EQ(written(), 3u);
  EXPECT_EQ(written(), 0u);
  const auto deleted = std::filesystem::path(blobs) /
                       (binaries[1].binary.digest.hex() + ".bin");
  ASSERT_TRUE(std::filesystem::remove(deleted));
  EXPECT_EQ(written(), 1u);
  std::ifstream in(deleted, std::ios::binary);
  const support::Bytes bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(binaries[1].binary.bytes, bytes);
}

/// Every BinaryDedupStats field.
void expect_same_dedup(const BinaryDedupStats& got,
                       const BinaryDedupStats& want, const std::string& run) {
  EXPECT_EQ(got.total, want.total) << run;
  EXPECT_EQ(got.unique, want.unique) << run;
  EXPECT_EQ(got.unique_dex, want.unique_dex) << run;
  EXPECT_EQ(got.unique_native, want.unique_native) << run;
  EXPECT_EQ(got.total_bytes, want.total_bytes) << run;
  EXPECT_EQ(got.unique_bytes, want.unique_bytes) << run;
  EXPECT_EQ(got.max_reuse, want.max_reuse) << run;
  EXPECT_EQ(got.blobs_written, want.blobs_written) << run;
}

// gcc 12's AddressSanitizer allocator has no fork handler: a pool worker
// forked by one driver thread while another allocates can deadlock in the
// child (docs/ISOLATION.md §6). Under ASan the pooled runs below therefore
// fork from one driver thread only; every other build runs them at 2 and
// 8 workers too.
#if defined(__SANITIZE_ADDRESS__)
constexpr std::size_t kMaxPooledWorkers = 1;
#else
constexpr std::size_t kMaxPooledWorkers = 8;
#endif

TEST(CacheEquivalence, DedupStatsMatchAtAnyWorkerCountAndAcrossResume) {
  // The dedup table counts every completed app's payloads exactly once, in
  // corpus order, however the app completed: analyzed in a thread or a
  // pooled worker, served by the cache, or replayed from a journal.
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus(0.003);
  const std::size_t n = corpus.apps.size();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig golden_config;
  golden_config.jobs = 1;
  const BinaryDedupStats golden =
      CorpusRunner(pipeline, golden_config).run(corpus).dedup;
  ASSERT_GT(golden.total, golden.unique) << "no payload repeats";
  ASSERT_EQ(golden.blobs_written, 0u);
  // A cold cached run persists each unique payload once.
  BinaryDedupStats persisted = golden;
  persisted.blobs_written = golden.unique;

  for (const IsolationMode mode : {IsolationMode::kOff, IsolationMode::kPool}) {
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      if (mode == IsolationMode::kPool && workers > kMaxPooledWorkers) break;
      const std::string run = std::string(mode == IsolationMode::kPool
                                              ? "pool"
                                              : "thread") +
                              " workers=" + std::to_string(workers);
      RunnerConfig config;
      config.jobs = workers;
      config.isolation_mode = mode;
      expect_same_dedup(CorpusRunner(pipeline, config).run(corpus).dedup,
                        golden, run + " uncached");

      TempCacheDir dir("dedup_" + run.substr(0, 4) + std::to_string(workers));
      config.cache_dir = dir.path();
      const auto cold = CorpusRunner(pipeline, config).run(corpus);
      EXPECT_EQ(cold.stats.cache_misses, n) << run;
      expect_same_dedup(cold.dedup, persisted, run + " cold");
      const auto warm = CorpusRunner(pipeline, config).run(corpus);
      EXPECT_EQ(warm.stats.cache_hits, n) << run;
      expect_same_dedup(warm.dedup, golden, run + " warm");
    }
  }

  // A journaled run killed on the k-th append, then resumed: the k
  // replayed outcomes count like analyzed ones. driver.kill is not
  // fingerprinted, so the journal resumes under the same configuration.
  const std::size_t k = (2 * n) / 3;
  auto plan = support::FaultPlan::parse("driver.kill=nth:" + std::to_string(k));
  ASSERT_TRUE(plan.ok());
  core::PipelineOptions kill_options;
  kill_options.faults = &plan.value();
  const core::DyDroid killing(std::move(kill_options));
  for (const IsolationMode mode : {IsolationMode::kOff, IsolationMode::kPool}) {
    const std::string run =
        mode == IsolationMode::kPool ? "pool resume" : "thread resume";
    TempJournal journal("dedup_" + run.substr(0, 4));
    RunnerConfig config;
    config.jobs = mode == IsolationMode::kPool
                      ? std::min<std::size_t>(2, kMaxPooledWorkers)
                      : 2;
    config.isolation_mode = mode;
    config.journal_path = journal.path();
    EXPECT_THROW((void)CorpusRunner(killing, config).run(corpus), RunAborted)
        << run;
    config.resume = true;
    // A resume stopped before it claims a slot still counts its replays.
    const std::atomic<bool> stop{true};
    config.stop = &stop;
    const auto stopped = CorpusRunner(killing, config).run(corpus);
    EXPECT_TRUE(stopped.interrupted) << run;
    EXPECT_EQ(stopped.replayed, k) << run;
    EXPECT_GT(stopped.stats.binaries, 0u) << run;
    EXPECT_EQ(stopped.dedup.total, stopped.stats.binaries) << run;
    config.stop = nullptr;
    const auto resumed = CorpusRunner(killing, config).run(corpus);
    EXPECT_EQ(resumed.replayed, k) << run;
    EXPECT_EQ(resumed.completed(), n) << run;
    expect_same_dedup(resumed.dedup, golden, run);
  }
}

// ---------------------------------------------------------------------------
// Interplay with the write-ahead journal (docs/CHECKPOINT.md): a journaled
// run killed mid-corpus resumes against a warm cache to a result
// byte-identical to an uninterrupted uncached run, and the provenance
// accounting (hits + misses + replayed == apps) holds throughout.
// ---------------------------------------------------------------------------

TEST(CacheEquivalence, KilledJournaledRunResumesWarmFromCache) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const std::size_t n = corpus.apps.size();
  const std::size_t k = (2 * n) / 3;  // kill on the k-th journal append
  ASSERT_GT(k, n - k) << "resume would re-trigger the nth-append kill";

  // One pipeline for every phase, so the config fingerprint matches: the
  // per-app fault (with retries) shapes the reports; driver.kill only ever
  // fires where a journal is armed.
  auto plan = support::FaultPlan::parse("device.boot=p:0.3,driver.kill=nth:" +
                                        std::to_string(k));
  ASSERT_TRUE(plan.ok());
  core::PipelineOptions options;
  options.faults = &plan.value();
  options.retry_on_crash = true;
  const core::DyDroid pipeline(std::move(options));

  // Golden: uncached, unjournaled (driver.kill has no append to fire on).
  RunnerConfig golden_config;
  golden_config.jobs = 1;
  const auto golden = CorpusRunner(pipeline, golden_config).run(corpus);
  const auto golden_json = report_jsons(golden);
  ASSERT_GT(golden.stats.retried, 0u)
      << "fault plan produced no retries; the interplay test is vacuous";

  // Phase 1 — populate the cache (no journal: nothing for the kill to hit).
  TempCacheDir cache_dir("interplay");
  RunnerConfig populate_config;
  populate_config.jobs = 2;
  populate_config.cache_dir = cache_dir.path();
  const auto populated = CorpusRunner(pipeline, populate_config).run(corpus);
  EXPECT_EQ(populated.stats.cache_hits, 0u);
  EXPECT_EQ(populated.stats.cache_misses, n);  // hits + misses == apps

  // Phase 2 — journaled + cached run, killed on the k-th append.
  TempJournal journal("interplay");
  RunnerConfig killed_config = populate_config;
  killed_config.journal_path = journal.path();
  std::size_t journaled = 0;
  try {
    (void)CorpusRunner(pipeline, killed_config).run(corpus);
    FAIL() << "expected RunAborted";
  } catch (const RunAborted& aborted) {
    journaled = aborted.journaled();
  }
  EXPECT_EQ(journaled, k);

  // Phase 3 — resume: k outcomes replay from the journal, the rest come
  // warm from the cache. Byte-identical to the uninterrupted golden run.
  RunnerConfig resume_config = killed_config;
  resume_config.resume = true;
  const auto resumed = CorpusRunner(pipeline, resume_config).run(corpus);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.replayed, k);
  EXPECT_EQ(resumed.analyzed, n - k);
  EXPECT_EQ(resumed.stats.cache_hits, n - k);  // all warm
  EXPECT_EQ(resumed.stats.cache_misses, 0u);
  EXPECT_EQ(
      resumed.stats.cache_hits + resumed.stats.cache_misses + resumed.replayed,
      n);
  const auto resumed_json = report_jsons(resumed);
  ASSERT_EQ(resumed_json.size(), golden_json.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(resumed_json[i], golden_json[i]) << "app " << i;
  }
  expect_same_counts(resumed.stats, golden.stats);
  // Journal-replayed outcomes never consult the cache; their provenance
  // flags say so.
  for (std::size_t i = 0; i < n; ++i) {
    if (resumed.outcomes[i].replayed) {
      EXPECT_FALSE(resumed.outcomes[i].cache_checked);
    } else {
      EXPECT_TRUE(resumed.outcomes[i].cache_checked);
      EXPECT_TRUE(resumed.outcomes[i].cache_hit);
    }
  }
}

// ---------------------------------------------------------------------------
// One format: a finished outcome journal is a cache store as it is.
// ---------------------------------------------------------------------------

TEST(CacheEquivalence, FinishedJournalPrimesACacheAsItIs) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const std::size_t n = corpus.apps.size();
  const core::DyDroid plain{core::PipelineOptions{}};
  // Pooled under a sandbox.crash plan: the journal holds fated outcomes,
  // which the cache must skip and the cached run (same plan) recompute.
  auto plan = support::FaultPlan::parse("sandbox.crash=p:0.3");
  ASSERT_TRUE(plan.ok()) << plan.error();
  core::PipelineOptions crash_options;
  crash_options.faults = &plan.value();
  const core::DyDroid crashing(std::move(crash_options));
  RunnerConfig thread_config;
  thread_config.jobs = 2;
  RunnerConfig pool_config = thread_config;
  pool_config.jobs = std::min<std::size_t>(2, kMaxPooledWorkers);
  pool_config.isolation_mode = IsolationMode::kPool;

  // Prime the cache of a run under `config` from `journal`, the finished
  // journal of `golden`, an uncached run under the same configuration.
  const auto expect_primes = [&](const std::string& tag,
                                 const core::DyDroid& pipeline,
                                 RunnerConfig config,
                                 const std::string& journal,
                                 const CorpusResult& golden) {
    std::size_t clean = 0;
    for (const auto& outcome : golden.outcomes) {
      if (outcome.sandbox_fate == SandboxFate::kNone) ++clean;
    }
    const auto golden_json = report_jsons(golden);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      if (config.isolated() && workers > kMaxPooledWorkers) break;
      SCOPED_TRACE(tag + " at " + std::to_string(workers) + " worker(s)");
      TempCacheDir dir("primed_" + tag + std::to_string(workers));
      std::filesystem::create_directories(dir.path());
      const auto store = std::filesystem::path(dir.path()) / kCacheFileName;
      std::filesystem::copy_file(journal, store);
      config.jobs = workers;
      config.journal_path.clear();
      config.cache_dir = dir.path();
      const auto cached = CorpusRunner(pipeline, config).run(corpus);
      EXPECT_EQ(cached.stats.cache_hits, clean);
      EXPECT_EQ(cached.stats.cache_misses, n - clean);
      EXPECT_EQ(cached.cache_invalidated, 0u);
      EXPECT_EQ(report_jsons(cached), golden_json);
      auto sealed = read_outcome_records(store.string());
      ASSERT_TRUE(sealed.ok()) << sealed.error();
      EXPECT_TRUE(sealed.value().meta.has_value());
      EXPECT_EQ(sealed.value().records.size(), clean);
      for (const auto& record : sealed.value().records) {
        EXPECT_EQ(record.sandbox_fate, SandboxFate::kNone);
      }
    }
  };

  {
    TempJournal journal("primes_thread");
    RunnerConfig config = thread_config;
    config.journal_path = journal.path();
    const auto golden = CorpusRunner(plain, config).run(corpus);
    expect_primes("thread", plain, thread_config, journal.path(), golden);
  }
  {
    TempJournal journal("primes_pool");
    RunnerConfig config = pool_config;
    config.journal_path = journal.path();
    const auto golden = CorpusRunner(crashing, config).run(corpus);
    ASSERT_GT(golden.stats.sandbox_crashed, 0u);
    ASSERT_LT(golden.stats.sandbox_crashed, n);
    expect_primes("pool", crashing, pool_config, journal.path(), golden);
  }
  {
    std::vector<TempJournal> shards;
    shards.reserve(3);  // a TempJournal removes its file when destroyed
    std::vector<std::string> shard_paths;
    for (std::uint32_t shard = 0; shard < 3; ++shard) {
      shards.emplace_back("primes_shard" + std::to_string(shard));
      RunnerConfig config = thread_config;
      config.shard_index = shard;
      config.shard_count = 3;
      config.journal_path = shards.back().path();
      (void)CorpusRunner(plain, config).run(corpus);
      shard_paths.push_back(shards.back().path());
    }
    TempJournal merged("primes_merged");
    const auto merge = merge_shard_journals(merged.path(), shard_paths);
    ASSERT_TRUE(merge.ok()) << merge.error();
    const auto golden = CorpusRunner(plain, thread_config).run(corpus);
    expect_primes("merged", plain, thread_config, merged.path(), golden);
  }
}

// ---------------------------------------------------------------------------
// Observability: a cached run's serial phases each show up as one span.
// ---------------------------------------------------------------------------

TEST(CacheTrace, CachedRunRecordsOneSpanPerSerialPhase) {
  support::set_log_level(support::LogLevel::Error);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  TempCacheDir dir("trace");
  RunnerConfig config;
  config.jobs = 2;
  config.cache_dir = dir.path();
  (void)CorpusRunner(pipeline, config).run(corpus);  // prime the store

  support::set_trace_enabled(true);
  const auto warm = CorpusRunner(pipeline, config).run(corpus);
  support::set_trace_enabled(false);
  const auto events = support::trace_collect();
  support::trace_reset();
  EXPECT_EQ(warm.stats.cache_hits, corpus.apps.size());

  std::map<std::pair<std::string_view, std::string_view>, std::size_t> spans;
  for (const auto& event : events) ++spans[{event.cat, event.name}];
  EXPECT_EQ((spans[{"cache", "open"}]), 1u);
  EXPECT_EQ((spans[{"runner", "reduce"}]), 1u);
  EXPECT_EQ((spans[{"cache", "seal"}]), 1u);
  EXPECT_EQ((spans[{"cache", "lookup"}]), corpus.apps.size());
  for (const auto& event : events) {
    if (event.name == "open" || event.name == "reduce" ||
        event.name == "seal") {
      EXPECT_EQ(event.app, support::kTraceNoApp)
          << event.cat << "." << event.name << " runs outside any app";
    }
  }
}

}  // namespace
}  // namespace dydroid::driver
