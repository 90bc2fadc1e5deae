// AppGen tests: spec -> app compilation invariants and corpus quota
// properties (populations, behaviours, determinism).
#include <gtest/gtest.h>

#include "appgen/corpus.hpp"
#include "appgen/generator.hpp"
#include "core/static_filter.hpp"
#include "obfuscation/detector.hpp"

namespace dydroid::appgen {
namespace {

AppSpec spec_of(const std::string& pkg) {
  AppSpec spec;
  spec.package = pkg;
  spec.category = "Tools";
  return spec;
}

dex::DexFile dex_of(const GeneratedApp& app) {
  const auto apk = apk::ApkFile::deserialize(app.apk);
  return *apk.read_classes_dex();
}

TEST(Generator, PlainAppHasLauncherAndNoDcl) {
  support::Rng rng(1);
  const auto app = build_app(spec_of("com.a.plain"), rng);
  const auto apk = apk::ApkFile::deserialize(app.apk);
  const auto man = apk.read_manifest();
  EXPECT_NE(man.launcher_activity(), nullptr);
  const auto filter = core::scan_dcl_apis(dex_of(app));
  EXPECT_FALSE(filter.any());
  EXPECT_TRUE(app.scenario.hosted_urls.empty());
}

TEST(Generator, AdSdkAppCarriesPayloadAssetAndDclCode) {
  auto spec = spec_of("com.a.ads");
  spec.ad_sdk = true;
  support::Rng rng(2);
  const auto app = build_app(spec, rng);
  const auto apk = apk::ApkFile::deserialize(app.apk);
  EXPECT_TRUE(apk.get("assets/ad_payload.bin").has_value());
  EXPECT_TRUE(core::scan_dcl_apis(dex_of(app)).dex_dcl);
}

TEST(Generator, BaiduAppHostsItsPayloadUrl) {
  auto spec = spec_of("com.a.baidu");
  spec.baidu_remote_sdk = true;
  support::Rng rng(3);
  const auto app = build_app(spec, rng);
  ASSERT_EQ(app.scenario.hosted_urls.size(), 1u);
  EXPECT_EQ(app.scenario.hosted_urls[0].first,
            "http://mobads.baidu.com/ads/pa/com.a.baidu.jar");
  EXPECT_TRUE(apk::looks_like_apk(app.scenario.hosted_urls[0].second));
}

TEST(Generator, NativeVulnAppShipsCompanion) {
  auto spec = spec_of("com.a.air");
  spec.vuln = VulnKind::NativeOtherAppInternal;
  support::Rng rng(4);
  const auto app = build_app(spec, rng);
  ASSERT_EQ(app.scenario.companion_apks.size(), 1u);
  const auto companion =
      apk::ApkFile::deserialize(app.scenario.companion_apks[0]);
  EXPECT_EQ(companion.read_manifest().package, "com.adobe.air");
  EXPECT_TRUE(companion.get("lib/armeabi/libCore.so").has_value());
}

TEST(Generator, DeadDclNeverHostsOrLeaks) {
  auto spec = spec_of("com.a.dormant");
  spec.dead_dex_dcl = true;
  spec.dead_native_dcl = true;
  support::Rng rng(5);
  const auto app = build_app(spec, rng);
  const auto filter = core::scan_dcl_apis(dex_of(app));
  EXPECT_TRUE(filter.dex_dcl);
  EXPECT_TRUE(filter.native_dcl);
}

TEST(Generator, PackedAppStructure) {
  auto spec = spec_of("com.a.packed");
  spec.ad_sdk = true;
  spec.dex_encryption = true;
  support::Rng rng(6);
  const auto app = build_app(spec, rng);
  const auto report =
      obfuscation::analyze_obfuscation(analysis::decompile(app.apk).value());
  EXPECT_TRUE(report.dex_encryption);
  // The original ad payload asset survives packing (assets are copied).
  const auto apk = apk::ApkFile::deserialize(app.apk);
  EXPECT_TRUE(apk.get("assets/ad_payload.bin").has_value());
  EXPECT_TRUE(apk.get("assets/shield_payload.bin").has_value());
}

TEST(Generator, NoActivityAppHasNoLauncher) {
  auto spec = spec_of("com.a.headless");
  spec.no_activity = true;
  support::Rng rng(7);
  const auto app = build_app(spec, rng);
  const auto apk = apk::ApkFile::deserialize(app.apk);
  EXPECT_EQ(apk.read_manifest().launcher_activity(), nullptr);
}

TEST(Generator, MinSdkAndPermissionRespected) {
  auto spec = spec_of("com.a.old");
  spec.min_sdk = 16;
  spec.write_external_permission = false;
  support::Rng rng(8);
  const auto app = build_app(spec, rng);
  const auto man = apk::ApkFile::deserialize(app.apk).read_manifest();
  EXPECT_EQ(man.min_sdk, 16);
  EXPECT_FALSE(man.has_permission(manifest::kWriteExternalStorage));
}

TEST(Generator, DeterministicGivenSeed) {
  auto spec = spec_of("com.a.det");
  spec.ad_sdk = true;
  spec.malware.push_back(
      MalwarePayloadSpec{malware::Family::SwissCodeMonkeys, {}});
  support::Rng r1(9);
  support::Rng r2(9);
  EXPECT_EQ(build_app(spec, r1).apk, build_app(spec, r2).apk);
}

// ---------------------------------------------------------------------------
// Corpus quota properties.
// ---------------------------------------------------------------------------

class CorpusTest : public ::testing::Test {
 protected:
  static const Corpus& corpus() {
    static const Corpus* c = [] {
      CorpusConfig config;
      config.scale = 0.02;
      return new Corpus(generate_corpus(config));
    }();
    return *c;
  }
};

TEST_F(CorpusTest, PopulationScales) {
  EXPECT_NEAR(static_cast<double>(corpus().apps.size()), 58739 * 0.02, 2.0);
}

TEST_F(CorpusTest, PackagesUnique) {
  std::set<std::string> pkgs;
  for (const auto& app : corpus().apps) pkgs.insert(app.spec.package);
  EXPECT_EQ(pkgs.size(), corpus().apps.size());
}

TEST_F(CorpusTest, DexAndNativeCodeQuotas) {
  std::size_t dex = 0, native = 0, any = 0;
  for (const auto& app : corpus().apps) {
    const bool d = app.spec.any_dex_dcl_code();
    const bool nv = app.spec.any_native_code();
    if (d) ++dex;
    if (nv) ++native;
    if (d || nv) ++any;
  }
  const double s = corpus().config.scale;
  EXPECT_NEAR(static_cast<double>(dex), 40849 * s, 40849 * s * 0.1);
  EXPECT_NEAR(static_cast<double>(native), 25287 * s, 25287 * s * 0.1);
  EXPECT_NEAR(static_cast<double>(any), 46000 * s, 46000 * s * 0.1);
}

TEST_F(CorpusTest, SpecialBehavioursPresent) {
  std::size_t baidu = 0, malware_apps = 0, vulns = 0, packed = 0, anti = 0;
  for (const auto& app : corpus().apps) {
    if (app.spec.baidu_remote_sdk) ++baidu;
    if (!app.spec.malware.empty()) ++malware_apps;
    if (app.spec.vuln != VulnKind::None && !app.spec.vuln_integrity_check) {
      ++vulns;
    }
    if (app.spec.dex_encryption) ++packed;
    if (app.spec.anti_decompilation) ++anti;
  }
  EXPECT_GE(baidu, 1u);
  EXPECT_GE(malware_apps, 3u);  // all three DCL families represented
  EXPECT_GE(vulns, 2u);         // both Table IX categories
  EXPECT_GE(packed, 1u);
  EXPECT_GE(anti, 1u);
}

TEST_F(CorpusTest, VulnDexAppsSupportPre44) {
  for (const auto& app : corpus().apps) {
    if (app.spec.vuln == VulnKind::DexExternalStorage) {
      EXPECT_LT(app.spec.min_sdk, 19);
    }
  }
}

TEST_F(CorpusTest, MalwareAppsArePopular) {
  for (const auto& app : corpus().apps) {
    if (!app.spec.malware.empty()) {
      EXPECT_GE(app.spec.popularity.downloads, 10'000'000);
    }
  }
}

TEST_F(CorpusTest, TriggerGatesAssigned) {
  std::size_t gated = 0;
  for (const auto& app : corpus().apps) {
    for (const auto& m : app.spec.malware) {
      if (!m.triggers.empty()) ++gated;
    }
  }
  EXPECT_GE(gated, 1u);
}

TEST_F(CorpusTest, DeterministicAcrossCalls) {
  CorpusConfig config;
  config.scale = 0.01;
  const auto a = generate_corpus(config);
  const auto b = generate_corpus(config);
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    ASSERT_EQ(a.apps[i].apk, b.apps[i].apk);
  }
}

class CorpusScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(CorpusScaleSweep, QuotaProportionsStableAcrossScales) {
  CorpusConfig config;
  config.scale = GetParam();
  const auto corpus = generate_corpus(config);
  const double n = static_cast<double>(corpus.apps.size());
  double dex = 0, native = 0, lexical = 0, reflection = 0;
  for (const auto& app : corpus.apps) {
    if (app.spec.any_dex_dcl_code()) dex += 1;
    if (app.spec.any_native_code()) native += 1;
    if (app.spec.lexical) lexical += 1;
    if (app.spec.reflection) reflection += 1;
  }
  // Paper proportions, generous tolerance for rounding at small scales.
  EXPECT_NEAR(dex / n, 40849.0 / 58739.0, 0.03);
  EXPECT_NEAR(native / n, 25287.0 / 58739.0, 0.03);
  EXPECT_NEAR(lexical / n, 0.8995, 0.02);
  EXPECT_NEAR(reflection / n, 0.522, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Scales, CorpusScaleSweep,
                         ::testing::Values(0.01, 0.03, 0.08));

TEST(Corpus, BadScaleRejected) {
  CorpusConfig config;
  config.scale = 0;
  EXPECT_THROW((void)generate_corpus(config), std::invalid_argument);
  config.scale = 1.5;
  EXPECT_THROW((void)generate_corpus(config), std::invalid_argument);
}

TEST(Corpus, ScaleFromEnvFallback) {
  EXPECT_DOUBLE_EQ(scale_from_env(0.07), 0.07);
}

TEST(Corpus, CategoriesListed) {
  EXPECT_EQ(play_categories().size(), 42u);
}

}  // namespace
}  // namespace dydroid::appgen
