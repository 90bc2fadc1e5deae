// Sandbox RPC fuzz belt (tier 2, docs/ISOLATION.md): whatever a dying
// worker managed to emit — torn, bit-flipped, duplicated, padded or plain
// garbage, for one app or a batch — decode_pool_responses, the decoder of
// all untrusted child output, must either reject it cleanly or return the
// original outcomes (and a damaged multi-app request never decodes into
// another dispatch); it must never throw, and a full corpus run
// under injected response corruption must degrade app-by-app (quarantined
// crash outcomes) without corrupting any other app's report.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "appgen/corpus.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/sandbox.hpp"
#include "support/fault.hpp"

namespace dydroid::driver {
namespace {

AppOutcome sample_outcome() {
  AppOutcome outcome;
  outcome.report.package = "com.sandbox.fuzz";
  outcome.report.status = core::DynamicStatus::kExercised;
  outcome.seed = 0xBE9C0011ull;
  outcome.wall_ms = 3.25;
  outcome.attempts = 1;
  return outcome;
}

/// True when `decoded` reproduces the sample stream's content exactly.
bool matches_sample(const DecodedOutcome& decoded, std::size_t index,
                    const AppOutcome& original) {
  return decoded.index == index && decoded.outcome.seed == original.seed &&
         core::report_to_json(decoded.outcome.report) ==
             core::report_to_json(original.report);
}

/// A response carrying one outcome, as a worker ships a round trip of one.
support::Bytes one_response(std::size_t index, const AppOutcome& outcome) {
  PoolResponseEncoder encoder;
  encoder.add(index, outcome);
  return encoder.finish();
}

TEST(SandboxFuzz, EveryTruncationFailsCleanly) {
  const AppOutcome outcome = sample_outcome();
  const support::Bytes stream = one_response(9, outcome);
  for (std::size_t keep = 0; keep < stream.size(); ++keep) {
    const auto decoded = decode_pool_responses(
        std::span<const std::uint8_t>(stream.data(), keep));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << keep << " bytes decoded";
  }
}

TEST(SandboxFuzz, EverySingleBitFlipIsRejectedOrEquivalent) {
  const AppOutcome outcome = sample_outcome();
  const support::Bytes stream = one_response(9, outcome);
  for (std::size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      support::Bytes mutated = stream;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      // Must not throw; a CRC-colliding accept would have to decode to the
      // same content, anything else is corruption leaking through.
      const auto decoded = decode_pool_responses(mutated);
      if (decoded.ok()) {
        EXPECT_TRUE(decoded.value().size() == 1 &&
                    matches_sample(decoded.value()[0], 9, outcome))
            << "flip at byte " << byte << " bit " << bit
            << " decoded to different content";
      }
    }
  }
}

/// A response carrying three outcomes, as a batched worker ships it.
support::Bytes batch_response(std::vector<AppOutcome>& outcomes) {
  PoolResponseEncoder encoder;
  for (std::size_t k = 0; k < 3; ++k) {
    AppOutcome outcome = sample_outcome();
    outcome.report.package += std::to_string(k);
    outcome.seed += k;
    outcome.attempts = static_cast<std::uint32_t>(k + 1);
    encoder.add(20 + k, outcome);
    outcomes.push_back(std::move(outcome));
  }
  return encoder.finish();
}

/// True when `decoded` is the three-outcome batch exactly.
bool matches_batch(const std::vector<DecodedOutcome>& decoded,
                   const std::vector<AppOutcome>& outcomes) {
  if (decoded.size() != outcomes.size()) return false;
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    if (!matches_sample(decoded[k], 20 + k, outcomes[k]) ||
        decoded[k].outcome.attempts != outcomes[k].attempts) {
      return false;
    }
  }
  return true;
}

TEST(SandboxFuzz, MultiAppResponseNeverDecodesIntoAWrongOutcome) {
  std::vector<AppOutcome> outcomes;
  const support::Bytes stream = batch_response(outcomes);
  ASSERT_TRUE(decode_pool_responses(stream).ok());
  for (std::size_t keep = 0; keep < stream.size(); ++keep) {
    EXPECT_FALSE(decode_pool_responses(
                     std::span<const std::uint8_t>(stream.data(), keep))
                     .ok())
        << "prefix of " << keep << " bytes decoded";
  }
  for (std::size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      support::Bytes mutated = stream;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto decoded = decode_pool_responses(mutated);
      if (decoded.ok()) {
        EXPECT_TRUE(matches_batch(decoded.value(), outcomes))
            << "flip at byte " << byte << " bit " << bit
            << " decoded to different content";
      }
    }
  }
}

TEST(SandboxFuzz, MultiAppRequestNeverDecodesIntoAnotherDispatch) {
  std::vector<PoolRequest> batch(3);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    batch[k].app_index = 40 + k;
    batch[k].attempt = static_cast<std::uint32_t>(k % 2);
    batch[k].seed = 0xBE9C0040ull + k;
    batch[k].worker = 3;
  }
  batch.back().retire = true;
  const support::Bytes stream = encode_pool_request(batch);
  const auto same = [&](const std::vector<PoolRequest>& decoded) {
    if (decoded.size() != batch.size()) return false;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const PoolRequest& a = decoded[k];
      const PoolRequest& b = batch[k];
      if (a.app_index != b.app_index || a.attempt != b.attempt ||
          a.seed != b.seed || a.worker != b.worker ||
          a.crash_child != b.crash_child || a.retire != b.retire) {
        return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(decode_pool_requests(stream).ok());
  for (std::size_t keep = 0; keep < stream.size(); ++keep) {
    EXPECT_FALSE(decode_pool_requests(
                     std::span<const std::uint8_t>(stream.data(), keep))
                     .ok())
        << "prefix of " << keep << " bytes decoded";
  }
  for (std::size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      support::Bytes mutated = stream;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto decoded = decode_pool_requests(mutated);
      if (decoded.ok()) {
        EXPECT_TRUE(same(decoded.value()))
            << "flip at byte " << byte << " bit " << bit
            << " decoded to another dispatch";
      }
    }
  }
}

TEST(SandboxFuzz, StructuralMutationsAreRejected) {
  const AppOutcome outcome = sample_outcome();
  const support::Bytes stream = one_response(9, outcome);

  // A duplicated frame: two records where the protocol demands exactly one.
  support::Bytes doubled = stream;
  doubled.insert(doubled.end(), stream.begin() + 8, stream.end());
  EXPECT_FALSE(decode_pool_responses(doubled).ok());

  // Trailing garbage after the valid frame parses as a torn second frame.
  support::Bytes padded = stream;
  for (int i = 0; i < 11; ++i) padded.push_back(0xAB);
  EXPECT_FALSE(decode_pool_responses(padded).ok());

  // Wrong magic: a journal file (or anything else) fed to the supervisor.
  support::Bytes wrong_magic = stream;
  wrong_magic[0] = 'X';
  EXPECT_FALSE(decode_pool_responses(wrong_magic).ok());

  // Pure noise of assorted sizes.
  for (const std::size_t size : {1u, 8u, 16u, 64u, 333u}) {
    support::Bytes noise(size);
    for (std::size_t i = 0; i < size; ++i) {
      noise[i] = static_cast<std::uint8_t>(i * 37u + 5u);
    }
    EXPECT_FALSE(decode_pool_responses(noise).ok()) << "noise size " << size;
  }
}

TEST(SandboxFuzz, PipeCorruptionNeverCorruptsTheRun) {
  appgen::CorpusConfig corpus_config;
  corpus_config.scale = 0.002;
  const auto corpus = appgen::generate_corpus(corpus_config);

  // Thread-mode golden: what every app reports when nothing is injected.
  const core::DyDroid clean{core::PipelineOptions{}};
  RunnerConfig thread_config;
  thread_config.jobs = 2;
  const auto golden = CorpusRunner(clean, thread_config).run(corpus);

  const auto plan_result = support::FaultPlan::parse("sandbox.pool.rpc=p:0.5");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();
  core::PipelineOptions options;
  options.faults = &plan;
  const core::DyDroid faulty(std::move(options));

  RunnerConfig config;
  config.jobs = 2;
  config.isolation_mode = IsolationMode::kPool;
  const auto result = CorpusRunner(faulty, config).run(corpus);

  ASSERT_EQ(result.outcomes.size(), corpus.apps.size());
  std::size_t torn = 0;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const auto& outcome = result.outcomes[i];
    if (outcome.sandbox_fate != SandboxFate::kNone) {
      // The damaged frame cost this app its result — quarantined crash —
      // and nothing else.
      ++torn;
      EXPECT_EQ(outcome.sandbox_fate, SandboxFate::kCrashed);
      EXPECT_TRUE(outcome.quarantined);
      EXPECT_EQ(outcome.report.status, core::DynamicStatus::kCrash);
    } else {
      EXPECT_EQ(core::report_to_json(outcome.report),
                core::report_to_json(golden.outcomes[i].report))
          << "untouched app " << i << " diverged";
    }
  }
  // p:0.5 over a few dozen apps: both populations must be non-empty for
  // the assertions above to mean anything.
  EXPECT_GT(torn, 0u);
  EXPECT_LT(torn, result.outcomes.size());
  EXPECT_EQ(result.stats.sandbox_crashed, torn);
  EXPECT_EQ(result.stats.apps, corpus.apps.size());
}

}  // namespace
}  // namespace dydroid::driver
