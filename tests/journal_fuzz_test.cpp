// Fuzz suite for the crash-safety persistence layer (docs/CHECKPOINT.md):
// structurally mutated journal files must parse (recovering a valid
// prefix) or fail loudly, and mutated outcome payloads must decode or
// raise support::ParseError — never crash, never over-allocate, never
// trip a sanitizer (tools/run_sanitizer_matrix.sh runs this suite under
// ASan/UBSan).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "appgen/corpus.hpp"
#include "appgen/faulty.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/outcome_codec.hpp"
#include "support/blob.hpp"
#include "support/error.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace dydroid {
namespace {

constexpr int kIterations = 400;

using support::Bytes;

/// Real journal payloads: outcomes of a small corpus run.
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
    out.reserve(result.outcomes.size());
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      out.push_back(driver::encode_outcome(i, result.outcomes[i]));
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
  for (int i = 0; i < kIterations; ++i) {
    const auto mutated = appgen::mutate_bytes(intact, rng);
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
