// Tests for the support::FaultInjector subsystem (docs/FAULTS.md): the
// FaultPlan grammar, the seed-pure per-session decision function, the
// ambient FaultScope, the FaultyCorpus byte-corruption generator — and the
// golden-corpus differential matrix proving that arming each injection
// site moves every app only into its predicted Table II bucket, with
// byte-identical reports across 1/2/8 workers.
#include <gtest/gtest.h>

#include <vector>

#include "appgen/corpus.hpp"
#include "appgen/faulty.hpp"
#include "driver/fault_matrix.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace dydroid {
namespace {

using support::FaultPlan;
using support::FaultScope;
using support::FaultSession;
using support::FaultSite;
using support::FaultSpec;

// ---- FaultPlan grammar -----------------------------------------------------

TEST(FaultPlanTest, ParsesAllModes) {
  const auto plan = FaultPlan::parse(
      "apk.deserialize=always,device.install=p:0.25,dex.parse=nth:2");
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_EQ(plan.value().spec(FaultSite::kApkDeserialize).mode,
            FaultSpec::Mode::kAlways);
  EXPECT_EQ(plan.value().spec(FaultSite::kDeviceInstall).mode,
            FaultSpec::Mode::kProbability);
  EXPECT_DOUBLE_EQ(plan.value().spec(FaultSite::kDeviceInstall).probability,
                   0.25);
  EXPECT_EQ(plan.value().spec(FaultSite::kDexParse).mode,
            FaultSpec::Mode::kNth);
  EXPECT_EQ(plan.value().spec(FaultSite::kDexParse).nth, 2u);
  EXPECT_EQ(plan.value().spec(FaultSite::kDeviceBoot).mode,
            FaultSpec::Mode::kNever);
  EXPECT_FALSE(plan.value().empty());
}

TEST(FaultPlanTest, EmptyTextIsEmptyPlan) {
  const auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().empty());
  EXPECT_EQ(plan.value().to_string(), "");
}

TEST(FaultPlanTest, RoundTripsThroughToString) {
  const char* text = "apk.deserialize=always,dex.parse=nth:3,native.load=p:0.5";
  const auto plan = FaultPlan::parse(text);
  ASSERT_TRUE(plan.ok()) << plan.error();
  const auto reparsed = FaultPlan::parse(plan.value().to_string());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error();
  EXPECT_EQ(reparsed.value().to_string(), plan.value().to_string());
  for (const auto site : support::all_fault_sites()) {
    EXPECT_EQ(reparsed.value().spec(site).mode, plan.value().spec(site).mode);
  }
}

TEST(FaultPlanTest, RejectsMalformedEntries) {
  EXPECT_FALSE(FaultPlan::parse("bogus.site=always").ok());
  EXPECT_FALSE(FaultPlan::parse("apk.deserialize=maybe").ok());
  EXPECT_FALSE(FaultPlan::parse("apk.deserialize").ok());
  EXPECT_FALSE(FaultPlan::parse("apk.deserialize=nth:0").ok());
  EXPECT_FALSE(FaultPlan::parse("apk.deserialize=p:1.5").ok());
  EXPECT_FALSE(FaultPlan::parse("apk.deserialize=p:-0.1").ok());
}

TEST(FaultSiteTest, NamesRoundTrip) {
  for (const auto site : support::all_fault_sites()) {
    const auto back = support::fault_site_from_name(fault_site_name(site));
    ASSERT_TRUE(back.ok()) << fault_site_name(site);
    EXPECT_EQ(back.value(), site);
  }
  EXPECT_FALSE(support::fault_site_from_name("nope").ok());
}

// ---- FaultSession decision function ----------------------------------------

TEST(FaultSessionTest, AlwaysFiresEveryHit) {
  FaultPlan plan;
  plan.set(FaultSite::kDeviceBoot, FaultSpec::always());
  FaultSession session(plan, 7);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(session.should_fire(FaultSite::kDeviceBoot));
    EXPECT_FALSE(session.should_fire(FaultSite::kDeviceInstall));
  }
  EXPECT_EQ(session.fired(), 5u);
}

TEST(FaultSessionTest, NthFiresExactlyOnNthHit) {
  FaultPlan plan;
  plan.set(FaultSite::kDexParse, FaultSpec::on_nth(3));
  FaultSession session(plan, 7);
  EXPECT_FALSE(session.should_fire(FaultSite::kDexParse));
  EXPECT_FALSE(session.should_fire(FaultSite::kDexParse));
  EXPECT_TRUE(session.should_fire(FaultSite::kDexParse));
  EXPECT_FALSE(session.should_fire(FaultSite::kDexParse));
  EXPECT_EQ(session.fired(), 1u);
}

TEST(FaultSessionTest, ProbabilityIsSeedDeterministic) {
  FaultPlan plan;
  plan.set(FaultSite::kInterceptorIo, FaultSpec::with_probability(0.5));
  FaultSession a(plan, 0xABCD);
  FaultSession b(plan, 0xABCD);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.should_fire(FaultSite::kInterceptorIo),
              b.should_fire(FaultSite::kInterceptorIo));
  }
}

TEST(FaultSessionTest, ProbabilityApproximatesRate) {
  FaultPlan plan;
  plan.set(FaultSite::kNativeLoad, FaultSpec::with_probability(0.5));
  FaultSession session(plan, 99);
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    if (session.should_fire(FaultSite::kNativeLoad)) ++fired;
  }
  EXPECT_GT(fired, 400);
  EXPECT_LT(fired, 600);
}

TEST(FaultSessionTest, DecisionsAreInterleavingIndependent) {
  // The draw for (site, hit k) must not depend on how *other* sites were
  // hit in between — this is what makes per-app runs reproducible no
  // matter which code paths interleave.
  FaultPlan plan;
  plan.set(FaultSite::kApkDeserialize, FaultSpec::with_probability(0.5));
  plan.set(FaultSite::kDexParse, FaultSpec::with_probability(0.5));
  FaultSession grouped(plan, 0xFEED);
  FaultSession alternating(plan, 0xFEED);
  std::vector<bool> ga, gd, aa, ad;
  for (int i = 0; i < 32; ++i) {
    ga.push_back(grouped.should_fire(FaultSite::kApkDeserialize));
  }
  for (int i = 0; i < 32; ++i) {
    gd.push_back(grouped.should_fire(FaultSite::kDexParse));
  }
  for (int i = 0; i < 32; ++i) {
    aa.push_back(alternating.should_fire(FaultSite::kApkDeserialize));
    ad.push_back(alternating.should_fire(FaultSite::kDexParse));
  }
  EXPECT_EQ(ga, aa);
  EXPECT_EQ(gd, ad);
}

TEST(FaultSessionTest, AttemptSaltsTheSessionSeed) {
  EXPECT_NE(support::fault_session_seed(42, 0),
            support::fault_session_seed(42, 1));
  EXPECT_EQ(support::fault_session_seed(42, 1),
            support::fault_session_seed(42, 1));
}

// ---- FaultScope ambient install --------------------------------------------

TEST(FaultScopeTest, NoAmbientSessionNeverFires) {
  ASSERT_EQ(support::current_fault_session(), nullptr);
  EXPECT_FALSE(support::fault_fire(FaultSite::kApkDeserialize));
}

TEST(FaultScopeTest, InstallsAndRestoresOnNesting) {
  FaultPlan plan;
  plan.set(FaultSite::kDeviceBoot, FaultSpec::always());
  FaultSession outer(plan, 1);
  FaultSession inner(plan, 2);
  {
    FaultScope outer_scope(&outer);
    EXPECT_EQ(support::current_fault_session(), &outer);
    EXPECT_TRUE(support::fault_fire(FaultSite::kDeviceBoot));
    {
      FaultScope inner_scope(&inner);
      EXPECT_EQ(support::current_fault_session(), &inner);
      EXPECT_TRUE(support::fault_fire(FaultSite::kDeviceBoot));
    }
    EXPECT_EQ(support::current_fault_session(), &outer);
  }
  EXPECT_EQ(support::current_fault_session(), nullptr);
  EXPECT_EQ(outer.fired(), 1u);
  EXPECT_EQ(inner.fired(), 1u);
}

TEST(FaultMessageTest, NamesTheSite) {
  EXPECT_EQ(support::fault_message(FaultSite::kDeviceInstall),
            "fault(device.install): injected failure");
}

// ---- FaultyCorpus byte corruption ------------------------------------------

appgen::Corpus small_corpus() {
  appgen::CorpusConfig config;
  config.scale = 0.002;  // ~120 apps
  return appgen::generate_corpus(config);
}

TEST(FaultyCorpusTest, SelectionAndMutationAreDeterministic) {
  const auto clean = small_corpus();
  appgen::FaultyCorpusConfig config;
  config.fraction = 0.3;
  config.layer = appgen::CorruptionLayer::kContainer;
  const auto a = appgen::corrupt_corpus(clean, config);
  const auto b = appgen::corrupt_corpus(clean, config);
  ASSERT_EQ(a.corrupted, b.corrupted);
  ASSERT_FALSE(a.corrupted.empty());
  ASSERT_LT(a.corrupted.size(), clean.apps.size());
  for (std::size_t i = 0; i < clean.apps.size(); ++i) {
    EXPECT_EQ(a.corpus.apps[i].apk, b.corpus.apps[i].apk) << "app " << i;
  }
}

TEST(FaultyCorpusTest, NonSelectedAppsStayByteIdentical) {
  const auto clean = small_corpus();
  appgen::FaultyCorpusConfig config;
  config.fraction = 0.3;
  config.layer = appgen::CorruptionLayer::kContainer;
  const auto faulty = appgen::corrupt_corpus(clean, config);
  std::vector<bool> corrupted(clean.apps.size(), false);
  for (const auto index : faulty.corrupted) corrupted[index] = true;
  for (std::size_t i = 0; i < clean.apps.size(); ++i) {
    if (corrupted[i]) {
      EXPECT_NE(faulty.corpus.apps[i].apk, clean.apps[i].apk) << "app " << i;
    } else {
      EXPECT_EQ(faulty.corpus.apps[i].apk, clean.apps[i].apk) << "app " << i;
    }
  }
}

TEST(FaultyCorpusTest, MutateBytesIsSeedDeterministic) {
  const auto clean = small_corpus();
  const auto& apk = clean.apps.front().apk;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    support::Rng a(seed);
    support::Rng b(seed);
    EXPECT_EQ(appgen::mutate_bytes(apk, a), appgen::mutate_bytes(apk, b));
  }
}

// ---- Golden-corpus differential matrix -------------------------------------

TEST(FaultMatrixTest, EverySiteShiftsOnlyItsPredictedBucket) {
  driver::FaultCheckOptions options;  // ~200 apps, workers 1/2/8
  const auto report = driver::run_fault_matrix(options);
  EXPECT_TRUE(report.passed()) << driver::format_fault_check(report);
  ASSERT_GT(report.apps, 100u);
  // 8 per-app pipeline sites + 4 corruption layers. The driver-level
  // crash-recovery sites (journal.append, driver.kill) are deliberately
  // NOT part of the matrix — they abort the run instead of shifting a
  // Table II bucket, and are exercised by tests/kill_resume_test.cpp
  // (docs/CHECKPOINT.md).
  ASSERT_EQ(report.cases.size(), 12u);

  const auto find = [&](const std::string& name) -> const auto& {
    for (const auto& c : report.cases) {
      if (c.name == name) return c;
    }
    ADD_FAILURE() << "missing case " << name;
    return report.cases.front();
  };

  // Killing any parse layer lands *every* app in Table II "not run".
  for (const char* name : {"apk.deserialize", "manifest.parse", "dex.parse"}) {
    const auto& c = find(name);
    EXPECT_EQ(c.histogram[static_cast<std::size_t>(
                  core::DynamicStatus::kNotRun)],
              report.apps)
        << name;
  }
  // Device faults leave no app exercised and crash every dynamic entrant.
  for (const char* name : {"device.boot", "device.install"}) {
    const auto& c = find(name);
    EXPECT_EQ(c.histogram[static_cast<std::size_t>(
                  core::DynamicStatus::kExercised)],
              0u)
        << name;
    EXPECT_GT(c.shifted, 0u) << name;
  }
  // Interceptor I/O faults never move the outcome histogram at all.
  EXPECT_EQ(find("interceptor.io").histogram, report.baseline);
  EXPECT_EQ(find("interceptor.io").shifted, 0u);
  // Each remaining case disturbed at least one app.
  EXPECT_GT(find("rewrite.repack").shifted, 0u);
  EXPECT_GT(find("native.load").shifted, 0u);
  // Byte-corruption cases: the corrupted fraction visibly changes reports
  // (the crc-trap layer is covered by the per-app predictions above — its
  // trap entry is deliberately invisible to most apps).
  for (const char* name :
       {"corrupt:container", "corrupt:manifest", "corrupt:dex"}) {
    EXPECT_LT(find(name).identical, report.apps) << name;
  }
}

}  // namespace
}  // namespace dydroid
