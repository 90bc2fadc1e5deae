// Per-binary verdict memo (core/verdict_memo.hpp, docs/PIPELINE.md): a
// DyDroid judges each distinct intercepted payload once. These tests pin
// the memo's identity rules (SHA-256 digest, not FNV-1a; detector; code
// kind), the saved work (a repeated payload costs no dex parse), its fault
// bypass and that sharing one DyDroid across a corpus changes no report.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "appgen/corpus.hpp"
#include "appgen/generator.hpp"
#include "core/pipeline.hpp"
#include "core/report_json.hpp"
#include "core/stages.hpp"
#include "core/verdict_memo.hpp"
#include "malware/droidnative.hpp"
#include "support/fault.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace dydroid {
namespace {

using core::BinaryVerdict;
using core::CodeKind;
using core::VerdictKey;
using core::VerdictMemo;

std::uint64_t counter_value(std::string_view name) {
  const auto snapshot = support::metrics_snapshot();
  const auto* counter = snapshot.counter(name);
  return counter == nullptr ? 0u : counter->value;
}

/// Enables metrics from a clean window for the test's duration.
class MetricsWindow {
 public:
  MetricsWindow() {
    support::set_log_level(support::LogLevel::Error);
    support::set_metrics_enabled(true);
    support::metrics_reset();
  }
  ~MetricsWindow() { support::set_metrics_enabled(false); }
  MetricsWindow(const MetricsWindow&) = delete;
  MetricsWindow& operator=(const MetricsWindow&) = delete;
};

BinaryVerdict verdict_named(const std::string& family) {
  BinaryVerdict verdict;
  verdict.malware = malware::Detection{family, 1.0, family + "#0"};
  return verdict;
}

TEST(VerdictMemo, CraftedFnvTwinMisses) {
  // Same length, same FNV-1a (tests/support_test.cpp), different bytes:
  // their SHA-256 digests differ, so the memo keeps them apart without
  // holding either payload.
  const std::string a = std::string("adhkfmajpgmp") + '\x61';
  const std::string b = std::string("dknbajjdhieb") + '\x17';
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(support::fnv1a64(a), support::fnv1a64(b));
  const auto digest_a = support::sha256(a);
  const auto digest_b = support::sha256(b);
  ASSERT_NE(digest_a, digest_b);

  const MetricsWindow metrics;
  VerdictMemo memo;
  memo.insert(VerdictKey{nullptr, CodeKind::Dex, digest_a},
              verdict_named("twin"));
  EXPECT_FALSE(memo.find(VerdictKey{nullptr, CodeKind::Dex, digest_b}));
  const auto hit = memo.find(VerdictKey{nullptr, CodeKind::Dex, digest_a});
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->malware.has_value());
  EXPECT_EQ(hit->malware->family, "twin");
  EXPECT_EQ(counter_value("pipeline.verdict_hits"), 1u);
  EXPECT_EQ(counter_value("pipeline.verdict_misses"), 1u);
  // The key is the digest: an insert copies no payload bytes.
  EXPECT_EQ(counter_value("pipeline.bytes_copied"), 0u);
}

TEST(VerdictMemo, KeyedByDetectorAndKind) {
  const malware::DroidNative first(0.9);
  const malware::DroidNative second(0.9);
  const auto digest = support::sha256("payload");
  VerdictMemo memo;
  memo.insert(VerdictKey{&first, CodeKind::Dex, digest}, verdict_named("one"));
  EXPECT_FALSE(memo.find(VerdictKey{&second, CodeKind::Dex, digest}));
  EXPECT_FALSE(memo.find(VerdictKey{nullptr, CodeKind::Dex, digest}));
  EXPECT_FALSE(memo.find(VerdictKey{&first, CodeKind::Native, digest}));
  memo.insert(VerdictKey{&second, CodeKind::Dex, digest},
              verdict_named("two"));
  const auto one = memo.find(VerdictKey{&first, CodeKind::Dex, digest});
  const auto two = memo.find(VerdictKey{&second, CodeKind::Dex, digest});
  ASSERT_TRUE(one.has_value() && one->malware.has_value());
  ASSERT_TRUE(two.has_value() && two->malware.has_value());
  EXPECT_EQ(one->malware->family, "one");
  EXPECT_EQ(two->malware->family, "two");
}

// ---- through the pipeline -------------------------------------------------

appgen::GeneratedApp ad_sdk_app(const std::string& package,
                                std::uint64_t rng_seed) {
  appgen::AppSpec spec;
  spec.package = package;
  spec.category = "TOOLS";
  spec.ad_sdk = true;  // loads the one shared ad payload
  support::Rng rng(rng_seed);
  return appgen::build_app(spec, rng);
}

core::AppReport analyze(const core::DyDroid& pipeline,
                        const appgen::GeneratedApp& app, std::uint64_t seed) {
  core::AnalysisRequest request;
  request.apk = app.apk;
  request.seed = seed;
  request.scenario_setup = &app.scenario;
  return pipeline.analyze(request);
}

/// PerBinaryStage, recording the dex parses and memo hits of its last run.
class MeasuredPerBinary final : public core::Stage {
 public:
  struct Delta {
    std::uint64_t dex_parses = 0;
    std::uint64_t hits = 0;
  };
  explicit MeasuredPerBinary(Delta& last) : last_(last) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  [[nodiscard]] core::StageResult run(
      core::AnalysisContext& ctx) const override {
    const auto parses = counter_value("pipeline.dex_parses");
    const auto hits = counter_value("pipeline.verdict_hits");
    auto result = inner_.run(ctx);
    last_.dex_parses = counter_value("pipeline.dex_parses") - parses;
    last_.hits = counter_value("pipeline.verdict_hits") - hits;
    return result;
  }

 private:
  core::PerBinaryStage inner_;
  Delta& last_;
};

TEST(VerdictMemo, SecondAppLoadingThePayloadReusesTheVerdict) {
  const MetricsWindow metrics;
  MeasuredPerBinary::Delta last;
  std::vector<std::unique_ptr<const core::Stage>> stages;
  for (auto& stage : core::default_stages()) {
    if (stage->name() == "per-binary") {
      stages.push_back(std::make_unique<MeasuredPerBinary>(last));
    } else {
      stages.push_back(std::move(stage));
    }
  }
  const core::DyDroid pipeline({}, std::move(stages));

  const auto first = analyze(pipeline, ad_sdk_app("com.example.first", 1), 7);
  ASSERT_EQ(first.binaries.size(), 1u) << first.crash_message;
  EXPECT_GT(last.dex_parses, 0u);
  EXPECT_EQ(last.hits, 0u);

  const auto second =
      analyze(pipeline, ad_sdk_app("com.example.second", 2), 8);
  ASSERT_EQ(second.binaries.size(), 1u) << second.crash_message;
  ASSERT_EQ(second.binaries[0].binary.bytes, first.binaries[0].binary.bytes);
  EXPECT_EQ(last.dex_parses, 0u);
  EXPECT_EQ(last.hits, 1u);
  EXPECT_EQ(counter_value("pipeline.verdict_misses"), 1u);
  // The reused verdict is the one the first app got.
  EXPECT_FALSE(second.binaries[0].privacy.leaks.empty());
  EXPECT_EQ(second.binaries[0].privacy.leaked_mask(),
            first.binaries[0].privacy.leaked_mask());
}

TEST(VerdictMemo, ChangingTheDetectorNeverReusesAVerdict) {
  support::set_log_level(support::LogLevel::Error);
  appgen::AppSpec spec;
  spec.package = "com.example.carrier";
  spec.category = "TOOLS";
  spec.malware.push_back(
      appgen::MalwarePayloadSpec{malware::Family::SwissCodeMonkeys, {}});
  support::Rng rng(3);
  const auto app = appgen::build_app(spec, rng);
  const auto trained = malware::paper_detector();
  const malware::DroidNative untrained(0.9);

  core::PipelineOptions options;
  options.detector = &trained;
  core::DyDroid pipeline(std::move(options));
  const auto flagged = analyze(pipeline, app, 11);
  ASSERT_EQ(flagged.malware_loaded().size(), 1u) << flagged.crash_message;

  pipeline.options().detector = &untrained;
  const auto rescanned = analyze(pipeline, app, 11);
  EXPECT_TRUE(rescanned.malware_loaded().empty());
  core::PipelineOptions fresh_options;
  fresh_options.detector = &untrained;
  const core::DyDroid fresh(std::move(fresh_options));
  EXPECT_EQ(core::report_to_json(rescanned),
            core::report_to_json(analyze(fresh, app, 11)));
}

TEST(VerdictMemo, SharedPipelineMatchesAFreshPipelinePerApp) {
  appgen::CorpusConfig config;
  config.scale = 0.005;
  const auto corpus = appgen::generate_corpus(config);
  const auto detector = malware::paper_detector();
  const auto dex_parse_faults = support::FaultPlan::parse("dex.parse=p:0.3");
  ASSERT_TRUE(dex_parse_faults.ok()) << dex_parse_faults.error();

  const support::FaultPlan* const plans[] = {nullptr,
                                             &dex_parse_faults.value()};
  for (const support::FaultPlan* plan : plans) {
    SCOPED_TRACE(plan == nullptr ? "faults off" : "dex.parse=p:0.3");
    core::PipelineOptions options;
    options.detector = &detector;
    options.faults = plan;

    const MetricsWindow metrics;
    std::vector<std::string> fresh;
    for (std::size_t i = 0; i < corpus.apps.size(); ++i) {
      const core::DyDroid pipeline(options);
      fresh.push_back(
          core::report_to_json(analyze(pipeline, corpus.apps[i], i)));
    }
    const auto fresh_lookups = counter_value("pipeline.verdict_hits") +
                               counter_value("pipeline.verdict_misses");
    support::metrics_reset();
    const core::DyDroid shared(options);
    std::size_t binaries = 0;
    for (std::size_t i = 0; i < corpus.apps.size(); ++i) {
      const auto report = analyze(shared, corpus.apps[i], i);
      binaries += report.binaries.size();
      ASSERT_EQ(core::report_to_json(report), fresh[i]) << "app " << i;
    }
    ASSERT_GT(binaries, 0u);
    const auto hits = counter_value("pipeline.verdict_hits");
    const auto misses = counter_value("pipeline.verdict_misses");
    if (plan == nullptr) {
      // One lookup per interception; the shared pipeline finds most
      // payloads already judged for an earlier app.
      EXPECT_EQ(fresh_lookups, binaries);
      EXPECT_EQ(hits + misses, binaries);
      EXPECT_GT(hits, misses);
    } else {
      EXPECT_EQ(fresh_lookups, 0u);
      EXPECT_EQ(hits, 0u);
      EXPECT_EQ(misses, 0u);
    }
  }
}

}  // namespace
}  // namespace dydroid
