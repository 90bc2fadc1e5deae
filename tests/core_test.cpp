// End-to-end pipeline tests: AppGen specs -> SimApk -> DyDroid pipeline,
// asserting the pipeline *recovers* each spec'd behaviour from binaries
// alone (interception, provenance, entity, malware, privacy, vulns).
#include <gtest/gtest.h>

#include "appgen/corpus.hpp"
#include "appgen/generator.hpp"
#include "core/pipeline.hpp"
#include "malware/families.hpp"

namespace dydroid::core {
namespace {

using appgen::AppSpec;
using appgen::MalwareTrigger;
using appgen::VulnKind;

AppSpec base_spec(const std::string& pkg) {
  AppSpec spec;
  spec.package = pkg;
  spec.category = "Tools";
  spec.write_external_permission = true;
  return spec;
}

/// Run the pipeline over a freshly generated app.
AppReport run_pipeline(const AppSpec& spec, PipelineOptions options = {},
                       std::uint64_t seed = 7) {
  support::Rng rng(seed);
  auto app = appgen::build_app(spec, rng);
  const DyDroid pipeline(std::move(options));
  AnalysisRequest request;
  request.apk = app.apk;
  request.seed = seed;
  request.scenario_setup = &app.scenario;
  return pipeline.analyze(request);
}

// ---------------------------------------------------------------------------
// Ad SDK: temp-file dex loading, third-party entity, local provenance.
// ---------------------------------------------------------------------------

TEST(Pipeline, AdSdkInterceptedDespiteDeletion) {
  auto spec = base_spec("com.example.photo");
  spec.ad_sdk = true;
  const auto report = run_pipeline(spec);
  ASSERT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  ASSERT_TRUE(report.intercepted(CodeKind::Dex));
  // The ad payload was captured even though the SDK deleted it after load.
  ASSERT_EQ(report.binaries.size(), 1u);
  EXPECT_NE(report.binaries[0].binary.path.find("/cache/ad1.dex"),
            std::string::npos);
  // Entity: the Google-Ads-like SDK package, not the app.
  EXPECT_EQ(report.binaries[0].binary.entity, Entity::ThirdParty);
  EXPECT_EQ(report.binaries[0].binary.call_site_class,
            "com.google.ads.sdk.MediaLoader");
  // Locally packed: no origin URL.
  EXPECT_FALSE(report.binaries[0].origin_url.has_value());
  // The ad library reads only device settings (paper §V-B(f)).
  const auto mask = report.binaries[0].privacy.leaked_mask();
  EXPECT_EQ(mask, privacy::mask_of(privacy::DataType::Settings));
}

TEST(Pipeline, AdPayloadFileStillOnDiskAfterRun) {
  // Direct engine-level check that the delete was silently blocked.
  auto spec = base_spec("com.example.photo");
  spec.ad_sdk = true;
  support::Rng rng(3);
  auto app = appgen::build_app(spec, rng);
  os::Device device;
  app.scenario.apply(device);
  const auto apk = apk::ApkFile::deserialize(app.apk);
  ASSERT_TRUE(device.install(apk).ok());
  auto man = apk.read_manifest();
  support::Rng run_rng(5);
  const auto result = run_app(
      device, std::make_shared<const dex::DexFile>(*apk.read_classes_dex()),
      man, run_rng);
  EXPECT_EQ(result.monkey.outcome, monkey::Outcome::kExercised);
  EXPECT_GE(result.blocked_mutations, 1u);
  EXPECT_TRUE(
      device.vfs().exists("/data/data/com.example.photo/cache/ad1.dex"));
}

// ---------------------------------------------------------------------------
// Remote fetch (Baidu): Table V provenance.
// ---------------------------------------------------------------------------

TEST(Pipeline, BaiduRemoteFetchTrackedToUrl) {
  auto spec = base_spec("com.classicalmuseumad.cnad");
  spec.baidu_remote_sdk = true;
  const auto report = run_pipeline(spec);
  ASSERT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  const auto remote = report.remote_loaded();
  ASSERT_EQ(remote.size(), 1u);
  EXPECT_EQ(*remote[0]->origin_url,
            "http://mobads.baidu.com/ads/pa/com.classicalmuseumad.cnad.jar");
  EXPECT_EQ(remote[0]->binary.entity, Entity::ThirdParty);
}

TEST(Pipeline, LocalLoadersAreNotRemote) {
  auto spec = base_spec("com.example.local");
  spec.ad_sdk = true;
  spec.own_dex_dcl = true;
  const auto report = run_pipeline(spec);
  EXPECT_EQ(report.status, DynamicStatus::kExercised);
  EXPECT_TRUE(report.remote_loaded().empty());
}

// ---------------------------------------------------------------------------
// Entity identification (Table IV).
// ---------------------------------------------------------------------------

TEST(Pipeline, OwnDclAttributedToDeveloper) {
  auto spec = base_spec("com.indie.game");
  spec.own_dex_dcl = true;
  const auto report = run_pipeline(spec);
  ASSERT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  const auto use = report.entity_use(CodeKind::Dex);
  EXPECT_TRUE(use.own);
  EXPECT_FALSE(use.third_party);
}

TEST(Pipeline, MixedEntityDetected) {
  auto spec = base_spec("com.indie.game");
  spec.own_dex_dcl = true;
  spec.analytics_sdk = true;
  const auto report = run_pipeline(spec);
  const auto use = report.entity_use(CodeKind::Dex);
  EXPECT_TRUE(use.own);
  EXPECT_TRUE(use.third_party);
}

TEST(Pipeline, NativeEntitySplit) {
  auto spec = base_spec("com.indie.game");
  spec.sdk_native_dcl = true;
  const auto report = run_pipeline(spec);
  ASSERT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  const auto use = report.entity_use(CodeKind::Native);
  EXPECT_TRUE(use.third_party);
  EXPECT_FALSE(use.own);
  EXPECT_TRUE(report.intercepted(CodeKind::Native));
}

// ---------------------------------------------------------------------------
// Table II outcomes.
// ---------------------------------------------------------------------------

TEST(Pipeline, DeadDclCodePassesFilterButNothingIntercepted) {
  auto spec = base_spec("com.example.dormant");
  spec.dead_dex_dcl = true;
  const auto report = run_pipeline(spec);
  EXPECT_TRUE(report.static_dcl.dex_dcl);
  EXPECT_EQ(report.status, DynamicStatus::kExercised);
  EXPECT_TRUE(report.binaries.empty());
}

TEST(Pipeline, NoDclAppNotExercised) {
  const auto report = run_pipeline(base_spec("com.example.plain"));
  EXPECT_FALSE(report.static_dcl.any());
  EXPECT_EQ(report.status, DynamicStatus::kNotRun);
}

TEST(Pipeline, CrashOnStartReported) {
  auto spec = base_spec("com.example.broken");
  spec.ad_sdk = true;
  spec.crash_on_start = true;
  const auto report = run_pipeline(spec);
  EXPECT_EQ(report.status, DynamicStatus::kCrash);
  EXPECT_TRUE(report.binaries.empty());
}

TEST(Pipeline, NoActivityReported) {
  auto spec = base_spec("com.example.headless");
  spec.ad_sdk = true;
  spec.no_activity = true;
  const auto report = run_pipeline(spec);
  EXPECT_EQ(report.status, DynamicStatus::kNoActivity);
}

TEST(Pipeline, AntiRepackagingCausesRewritingFailure) {
  auto spec = base_spec("com.example.armored");
  spec.ad_sdk = true;
  spec.anti_repackaging = true;
  spec.write_external_permission = false;  // forces the rewrite attempt
  const auto report = run_pipeline(spec);
  EXPECT_EQ(report.status, DynamicStatus::kRewritingFailure);
}

TEST(Pipeline, MissingPermissionRewrittenSuccessfully) {
  auto spec = base_spec("com.example.needsrw");
  spec.ad_sdk = true;
  spec.write_external_permission = false;  // no trap: rewrite succeeds
  const auto report = run_pipeline(spec);
  EXPECT_EQ(report.status, DynamicStatus::kExercised);
  EXPECT_TRUE(report.intercepted(CodeKind::Dex));
}

TEST(Pipeline, AntiDecompilationStopsStaticAnalysis) {
  auto spec = base_spec("com.example.poisoned");
  spec.ad_sdk = true;
  spec.anti_decompilation = true;
  const auto report = run_pipeline(spec);
  EXPECT_TRUE(report.decompile_failed);
  EXPECT_TRUE(report.obfuscation.anti_decompilation);
  EXPECT_EQ(report.status, DynamicStatus::kNotRun);
}

// ---------------------------------------------------------------------------
// DEX encryption (packer) end to end.
// ---------------------------------------------------------------------------

TEST(Pipeline, PackedAppRunsAndIsDetected) {
  auto spec = base_spec("com.smarttv.remote");
  spec.dex_encryption = true;
  const auto report = run_pipeline(spec);
  EXPECT_TRUE(report.obfuscation.dex_encryption);
  ASSERT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  // The container's decrypt-then-load produced an intercepted binary whose
  // content is the ORIGINAL classes.dex (the packer is defeated at runtime).
  ASSERT_TRUE(report.intercepted(CodeKind::Dex));
  bool saw_decrypted = false;
  for (const auto& b : report.binaries) {
    if (b.binary.path.find(".shield/dec.dex") != std::string::npos) {
      saw_decrypted = true;
      EXPECT_TRUE(dex::looks_like_dex(b.binary.bytes));
    }
  }
  EXPECT_TRUE(saw_decrypted);
}

TEST(Pipeline, UnpackedAppNotFlaggedAsEncrypted) {
  auto spec = base_spec("com.example.open");
  spec.ad_sdk = true;
  const auto report = run_pipeline(spec);
  EXPECT_FALSE(report.obfuscation.dex_encryption);
}

// ---------------------------------------------------------------------------
// Malware (Tables VII & VIII).
// ---------------------------------------------------------------------------

malware::DroidNative trained_detector() {
  malware::DroidNative detector(0.9);
  support::Rng rng(99);
  for (int f = 0; f < malware::kNumFamilies; ++f) {
    const auto samples = malware::generate_training_samples(
        malware::family_at(f), 4, rng);
    for (const auto& sample : samples) {
      detector.train(malware::family_name(malware::family_at(f)), sample);
    }
  }
  return detector;
}

TEST(Pipeline, HiddenDexMalwareDetected) {
  const auto detector = trained_detector();
  auto spec = base_spec("com.sktelecom.hoppin.mobile");
  spec.malware.push_back(
      appgen::MalwarePayloadSpec{malware::Family::SwissCodeMonkeys, {}});
  PipelineOptions options;
  options.detector = &detector;
  const auto report = run_pipeline(spec, std::move(options));
  ASSERT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  const auto hits = report.malware_loaded();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->malware->family, "Swiss code monkeys");
  EXPECT_GE(hits[0]->malware->score, 0.9);
  // The payload actually ran: it exfiltrated and executed a C2 command.
  bool saw_sms = false;
  for (const auto& e : report.vm_events) saw_sms |= (e.kind == "sms");
  EXPECT_TRUE(saw_sms);
}

TEST(Pipeline, NativeMalwareDetectedAndPtraceObserved) {
  const auto detector = trained_detector();
  auto spec = base_spec("com.com2us.tinyfarm");
  spec.malware.push_back(
      appgen::MalwarePayloadSpec{malware::Family::ChathookPtrace, {}});
  PipelineOptions options;
  options.detector = &detector;
  const auto report = run_pipeline(spec, std::move(options));
  ASSERT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  const auto hits = report.malware_loaded();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->malware->family, "Chathook ptrace");
  EXPECT_EQ(hits[0]->binary.kind, CodeKind::Native);
  bool saw_ptrace = false;
  for (const auto& e : report.vm_events) saw_ptrace |= (e.kind == "ptrace");
  EXPECT_TRUE(saw_ptrace);
}

TEST(Pipeline, BenignBinariesNotFlagged) {
  const auto detector = trained_detector();
  auto spec = base_spec("com.example.clean");
  spec.ad_sdk = true;
  spec.own_dex_dcl = true;
  PipelineOptions options;
  options.detector = &detector;
  const auto report = run_pipeline(spec, std::move(options));
  EXPECT_TRUE(report.malware_loaded().empty());
}

class TriggerGateTest : public ::testing::TestWithParam<MalwareTrigger> {};

TEST_P(TriggerGateTest, GateBlocksLoadUnderMatchingConfig) {
  const auto trigger = GetParam();
  auto spec = base_spec("com.example.gated");
  spec.malware.push_back(appgen::MalwarePayloadSpec{
      malware::Family::AdwareAirpushMinimob, {trigger}});

  // Default environment: payload loads.
  {
    const auto report = run_pipeline(spec);
    ASSERT_EQ(report.status, DynamicStatus::kExercised)
        << report.crash_message;
    EXPECT_TRUE(report.intercepted(CodeKind::Dex));
  }
  // Matching Table VIII config: payload stays hidden.
  {
    PipelineOptions options;
    switch (trigger) {
      case MalwareTrigger::SystemTime:
        options.runtime.time_ms = appgen::kReleaseTimeMs - 86'400'000;
        break;
      case MalwareTrigger::AirplaneMode:
        options.runtime.airplane_mode = true;
        options.runtime.wifi_enabled = true;
        break;
      case MalwareTrigger::Connectivity:
        options.runtime.airplane_mode = true;
        options.runtime.wifi_enabled = false;
        break;
      case MalwareTrigger::Location:
        options.runtime.location_enabled = false;
        break;
    }
    const auto report = run_pipeline(spec, std::move(options));
    ASSERT_EQ(report.status, DynamicStatus::kExercised)
        << report.crash_message;
    EXPECT_FALSE(report.intercepted(CodeKind::Dex));
  }
}

INSTANTIATE_TEST_SUITE_P(AllTriggers, TriggerGateTest,
                         ::testing::Values(MalwareTrigger::SystemTime,
                                           MalwareTrigger::AirplaneMode,
                                           MalwareTrigger::Connectivity,
                                           MalwareTrigger::Location));

TEST(Pipeline, AirplaneGatedStillLoadsWithWifiOverride) {
  // Connectivity-gated (not airplane-gated) malware loads in the
  // "Airplane mode / WiFi ON" config — the distinction behind Table VIII's
  // 56 vs 53 split.
  auto spec = base_spec("com.example.connected");
  spec.malware.push_back(appgen::MalwarePayloadSpec{
      malware::Family::AdwareAirpushMinimob, {MalwareTrigger::Connectivity}});
  PipelineOptions options;
  options.runtime.airplane_mode = true;
  options.runtime.wifi_enabled = true;  // overrides airplane mode
  const auto report = run_pipeline(spec, std::move(options));
  EXPECT_TRUE(report.intercepted(CodeKind::Dex));
}

// ---------------------------------------------------------------------------
// Vulnerabilities (Table IX).
// ---------------------------------------------------------------------------

TEST(Pipeline, ExternalStorageDexLoadFlagged) {
  auto spec = base_spec("com.longtukorea.snmg");
  spec.vuln = VulnKind::DexExternalStorage;
  spec.min_sdk = 16;
  const auto report = run_pipeline(spec);
  ASSERT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  ASSERT_EQ(report.vulns.size(), 1u);
  EXPECT_EQ(report.vulns[0].category, VulnCategory::ExternalStorage);
  EXPECT_EQ(report.vulns[0].kind, CodeKind::Dex);
  EXPECT_NE(report.vulns[0].path.find("/mnt/sdcard/"), std::string::npos);
}

TEST(Pipeline, ExternalStorageNotFlaggedWhenMinSdkModern) {
  auto spec = base_spec("com.example.modern");
  spec.vuln = VulnKind::DexExternalStorage;
  spec.min_sdk = 21;  // no pre-4.4 devices: not exploitable per the paper
  const auto report = run_pipeline(spec);
  EXPECT_TRUE(report.vulns.empty());
}

TEST(Pipeline, OtherAppInternalNativeLoadFlagged) {
  auto spec = base_spec("com.devicescape.usc.wifinow");
  spec.vuln = VulnKind::NativeOtherAppInternal;
  const auto report = run_pipeline(spec);
  ASSERT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  ASSERT_EQ(report.vulns.size(), 1u);
  EXPECT_EQ(report.vulns[0].category,
            VulnCategory::OtherAppInternalStorage);
  EXPECT_EQ(report.vulns[0].kind, CodeKind::Native);
  EXPECT_NE(report.vulns[0].path.find("com.adobe.air"), std::string::npos);
}

TEST(Pipeline, IntegrityCheckedLoadNotFlagged) {
  auto spec = base_spec("com.example.careful");
  spec.vuln = VulnKind::DexExternalStorage;
  spec.vuln_integrity_check = true;
  spec.min_sdk = 16;
  const auto report = run_pipeline(spec);
  ASSERT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  EXPECT_TRUE(report.vulns.empty());
}

// ---------------------------------------------------------------------------
// Privacy in loaded code (Table X).
// ---------------------------------------------------------------------------

TEST(Pipeline, AnalyticsPayloadLeaksRecovered) {
  auto spec = base_spec("com.example.tracked");
  spec.analytics_sdk = true;
  spec.sdk_leaks = privacy::mask_of(privacy::DataType::Imei) |
                   privacy::mask_of(privacy::DataType::Location) |
                   privacy::mask_of(privacy::DataType::Settings);
  const auto report = run_pipeline(spec);
  ASSERT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  privacy::TaintMask mask = 0;
  for (const auto& b : report.binaries) mask |= b.privacy.leaked_mask();
  EXPECT_EQ(mask, spec.sdk_leaks);
  // All leaking classes live in the SDK's namespace (exclusively 3rd-party).
  for (const auto& b : report.binaries) {
    for (const auto& leak : b.privacy.leaks) {
      EXPECT_TRUE(leak.sink_class.starts_with("com.flurry.analytics"));
    }
  }
}

TEST(Pipeline, OwnPluginLeakAttributedToAppNamespace) {
  auto spec = base_spec("com.example.owned");
  spec.own_dex_dcl = true;
  spec.own_leaks = privacy::mask_of(privacy::DataType::Contact);
  const auto report = run_pipeline(spec);
  ASSERT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  bool saw = false;
  for (const auto& b : report.binaries) {
    for (const auto& leak : b.privacy.leaks) {
      if (leak.type == privacy::DataType::Contact) {
        saw = true;
        EXPECT_TRUE(leak.sink_class.starts_with("com.example.owned"));
      }
    }
  }
  EXPECT_TRUE(saw);
}

// ---------------------------------------------------------------------------
// Engine robustness.
// ---------------------------------------------------------------------------

TEST(Pipeline, ModernDeviceBlocksUnprivilegedSdcardWrite) {
  // On an API >= 19 device, writing external storage requires the
  // permission; an app without it crashes with IOException instead of
  // planting loadable bytecode there.
  auto spec = base_spec("com.example.legacywriter");
  spec.vuln = VulnKind::DexExternalStorage;
  spec.min_sdk = 16;
  spec.write_external_permission = false;  // rewriter re-adds it...
  PipelineOptions options;
  options.device.api_level = 25;
  const auto report = run_pipeline(spec, std::move(options));
  // ...so after rewriting the app CAN write (holds the permission), and the
  // vuln is still flagged because the manifest admits pre-4.4 devices.
  EXPECT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  EXPECT_FALSE(report.vulns.empty());

  // Without the permission (no rewrite path: keep it, then strip device
  // write access by API level), the write itself fails.
  os::Vfs vfs(25);
  os::Principal p;
  p.pkg = "com.example.legacywriter";
  p.has_write_external = false;
  EXPECT_FALSE(
      vfs.write_file(p, "/mnt/sdcard/x.dex", support::to_bytes("d")).ok());
}

TEST(Pipeline, StorageFullRecoveredAutomatically) {
  auto spec = base_spec("com.example.bulky");
  spec.ad_sdk = true;
  PipelineOptions options;
  // Tight but survivable capacity: the first run may hit "storage full",
  // the engine clears caches and retries.
  options.device.storage_capacity_bytes = 64 * 1024;
  const auto report = run_pipeline(spec, std::move(options));
  EXPECT_TRUE(report.status == DynamicStatus::kExercised ||
              report.storage_recovered)
      << report.crash_message;
}

TEST(Pipeline, ReflectionFlagSurvivesPipeline) {
  auto spec = base_spec("com.example.meta");
  spec.ad_sdk = true;
  spec.reflection = true;
  const auto report = run_pipeline(spec);
  EXPECT_TRUE(report.obfuscation.reflection);
  EXPECT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
}

TEST(Pipeline, LexicalObfuscatedAppStillRunsAndIsFlagged) {
  auto spec = base_spec("com.example.renamed");
  spec.ad_sdk = true;
  spec.lexical = true;
  const auto report = run_pipeline(spec);
  EXPECT_TRUE(report.obfuscation.lexical);
  ASSERT_EQ(report.status, DynamicStatus::kExercised) << report.crash_message;
  EXPECT_TRUE(report.intercepted(CodeKind::Dex));
}

TEST(Pipeline, UnobfuscatedAppNotFlaggedLexical) {
  auto spec = base_spec("com.example.readable");
  spec.ad_sdk = true;
  const auto report = run_pipeline(spec);
  EXPECT_FALSE(report.obfuscation.lexical);
}

}  // namespace
}  // namespace dydroid::core
