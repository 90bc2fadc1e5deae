// Fuzz suite for the crash-safety persistence layer (docs/CHECKPOINT.md):
// structurally mutated journal files must parse (recovering a valid
// prefix) or fail loudly, the strict journal reader and the result cache's
// advisory open of the same bytes must agree, and mutated outcome payloads
// must decode or raise support::ParseError — never crash, never
// over-allocate, never trip a sanitizer (tools/run_sanitizer_matrix.sh
// runs this suite under ASan/UBSan).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "appgen/corpus.hpp"
#include "appgen/faulty.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/outcome_codec.hpp"
#include "driver/result_cache.hpp"
#include "driver/shard_merge.hpp"
#include "support/blob.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace dydroid {
namespace {

constexpr int kIterations = 400;

using support::Bytes;

/// The fingerprint the sample journal's metadata record names.
const support::Sha256Digest kFuzzFingerprint =
    support::sha256("journal-fuzz-config");

/// Real journal payloads: the metadata record, then the outcomes of a small
/// corpus run, each naming a job; every 7th carries a sandbox fate, as a
/// pooled run's kills do.
const std::vector<Bytes>& sample_payloads() {
  static const std::vector<Bytes> payloads = [] {
    support::set_log_level(support::LogLevel::Error);
    appgen::CorpusConfig config;
    config.scale = 0.002;
    const auto corpus = appgen::generate_corpus(config);
    const core::DyDroid pipeline{core::PipelineOptions{}};
    driver::RunnerConfig runner_config;
    runner_config.jobs = 2;
    const auto result =
        driver::CorpusRunner(pipeline, runner_config).run(corpus);
    std::vector<Bytes> out;
    out.reserve(result.outcomes.size() + 1);
    support::ShardMeta meta;
    meta.seed_base = driver::kDefaultSeedBase;
    meta.corpus_size = result.outcomes.size();
    meta.outcome_codec_version = driver::kOutcomeCodecVersion;
    meta.config_fingerprint = kFuzzFingerprint.bytes;
    out.push_back(support::encode_shard_meta(meta));
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      driver::AppOutcome outcome = result.outcomes[i];
      outcome.job = support::sha256("journal-fuzz-job-" + std::to_string(i));
      if (i % 7 == 3) outcome.sandbox_fate = driver::SandboxFate::kCrashed;
      out.push_back(driver::encode_outcome(i, outcome));
    }
    return out;
  }();
  return payloads;
}

/// A sealed journal holding every sample payload.
Bytes sample_journal_bytes() {
  const std::string path = testing::TempDir() + "dydroid_fuzz_" +
                           std::to_string(::getpid()) + ".jrnl";
  std::remove(path.c_str());
  {
    auto writer = support::JournalWriter::open(path);
    EXPECT_TRUE(writer.ok());
    for (const auto& payload : sample_payloads()) {
      EXPECT_TRUE(writer.value().append(payload).ok());
    }
  }
  std::ifstream in(path, std::ios::binary);
  Bytes bytes((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

/// Read `journal` strictly, as a resume or a merge does, and open it as a
/// cache store under its fingerprint. Neither may crash; whenever the
/// strict read accepts it, the cache loads one entry per strict entry
/// without a sandbox fate. Returns whether the strict read accepted it.
bool expect_readers_agree(const Bytes& journal, int iteration) {
  const std::string dir = testing::TempDir() + "dydroid_fuzz_agree_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(iteration);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string store = dir + "/" + std::string(driver::kCacheFileName);
  {
    std::ofstream out(store, std::ios::binary);
    out.write(reinterpret_cast<const char*>(journal.data()),
              static_cast<std::streamsize>(journal.size()));
  }
  std::map<std::size_t, bool> fated;  // last writer per index
  const auto strict = driver::read_outcome_journal(
      store, [&](std::size_t index, driver::AppOutcome&& outcome) {
        fated[index] = outcome.sandbox_fate != driver::SandboxFate::kNone;
      });
  // The open may rewrite the store; the strict read is already done.
  auto cache = driver::ResultCache::open(dir, kFuzzFingerprint);
  if (strict.ok()) {
    EXPECT_TRUE(cache.ok()) << "iteration " << iteration << ": "
                            << cache.error();
    std::size_t clean = 0;
    for (const auto& [index, killed] : fated) clean += killed ? 0 : 1;
    if (cache.ok()) {
      EXPECT_EQ(cache.value().stats().loaded, clean) << "iteration "
                                                     << iteration;
    }
  }
  std::filesystem::remove_all(dir);
  return strict.ok();
}

TEST(JournalFuzz, MutatedJournalBytesParseOrFailLoudly) {
  const Bytes intact = sample_journal_bytes();
  {
    const auto parsed = support::parse_journal(support::Blob::copy_of(intact));
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(parsed.value().records.size(), sample_payloads().size());
  }
  support::Rng rng(0x10021701);
  int recovered_all = 0;
  int recovered_prefix = 0;
  int rejected = 0;
  int strictly_accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const auto mutated = appgen::mutate_bytes(intact, rng);
    if (expect_readers_agree(mutated, i)) ++strictly_accepted;
    const auto parsed = support::parse_journal(support::Blob::copy_of(mutated));
    if (!parsed.ok()) {
      ++rejected;  // magic destroyed — loud failure, never a silent empty
      continue;
    }
    // Whatever the damage, every recovered record must be one of the
    // originals, in order (a prefix possibly followed by re-synchronized
    // noise is NOT acceptable — recovery stops at the first bad frame).
    const auto& records = parsed.value().records;
    bool prefix_intact = true;
    for (std::size_t r = 0;
         r < records.size() && r < sample_payloads().size(); ++r) {
      if (records[r] != sample_payloads()[r]) {
        prefix_intact = false;
        break;
      }
    }
    // Mutations inside a payload keep its CRC-consistency only if the
    // mutation also fixed the CRC — astronomically unlikely; flag it.
    if (prefix_intact && records.size() == sample_payloads().size()) {
      ++recovered_all;
    } else if (prefix_intact) {
      ++recovered_prefix;
    }
    // Every surviving record must decode or throw ParseError (the decode
    // guards are the second line of defence behind the CRC).
    for (const auto& record : records) {
      try {
        (void)driver::decode_outcome(record);
      } catch (const support::ParseError&) {
        // acceptable: framed garbage rejected at the codec layer
      }
    }
  }
  // The distribution depends on the mutator, but all three outcomes must
  // actually occur across 400 iterations.
  EXPECT_GT(recovered_prefix, 0);
  EXPECT_GT(rejected + recovered_all + recovered_prefix, kIterations / 2);
  EXPECT_GT(strictly_accepted, 0);
}

TEST(JournalFuzz, MutatedOutcomePayloadsDecodeOrThrowParseError) {
  support::Rng rng(0x10021702);
  int decoded_ok = 0;
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    const auto& base = sample_payloads()[static_cast<std::size_t>(i) %
                                         sample_payloads().size()];
    const auto mutated = appgen::mutate_bytes(base, rng);
    try {
      const auto decoded = driver::decode_outcome(mutated);
      // Decoded garbage must still be serializable (no poisoned strings /
      // out-of-range enums slipped through the range checks).
      (void)core::report_to_json(decoded.outcome.report);
      ++decoded_ok;
    } catch (const support::ParseError&) {
      ++rejected;
    }
    // Any other exception type or a crash fails the test.
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(decoded_ok + rejected, kIterations);
}

TEST(JournalFuzz, TruncatedJournalNeverLosesTheValidPrefix) {
  const Bytes intact = sample_journal_bytes();
  // Every truncation point: the parse must succeed (or reject pre-magic
  // cuts) and recovered records must be an exact prefix.
  for (std::size_t cut = 0; cut <= intact.size(); cut += 7) {
    const Bytes torn(intact.begin(), intact.begin() + static_cast<long>(cut));
    const auto parsed = support::parse_journal(support::Blob::copy_of(torn));
    if (!parsed.ok()) {
      ASSERT_LT(cut, support::kJournalMagic.size()) << "cut " << cut;
      continue;
    }
    if (cut == 0) continue;  // empty file: valid empty journal
    const auto& records = parsed.value().records;
    ASSERT_LE(records.size(), sample_payloads().size());
    for (std::size_t r = 0; r < records.size(); ++r) {
      ASSERT_EQ(records[r], sample_payloads()[r])
          << "cut " << cut << " record " << r;
    }
  }
}

}  // namespace
}  // namespace dydroid
