// End-to-end code-injection attack & defense (paper §III-B(b), Table IX,
// and the Grab'n-Run-style mitigation of Falsina et al. the paper cites).
//
// Attack 1: a co-installed app with nothing but SD-card write access
// replaces a victim's externally cached bytecode; the victim executes the
// attacker's code with all of the victim's permissions.
// Attack 2: a malicious variant of a runtime app (com.adobe.air) serves a
// trojanized libCore.so to every app that blindly loads it.
// Defense: pinning the payload hash (vuln_integrity_check) aborts the load.
#include <gtest/gtest.h>

#include "appgen/generator.hpp"
#include "core/engine.hpp"
#include "dex/builder.hpp"
#include "nativebin/native_library.hpp"

namespace dydroid::core {
namespace {

using support::to_bytes;

constexpr const char* kVictimPkg = "com.longtukorea.snmg";
constexpr const char* kSdcardJar =
    "/mnt/sdcard/im_sdk/jar/yayavoice_for_assets.jar";

/// The attacker's payload impersonates the class the victim loads, but
/// sends a premium SMS when run.
support::Bytes evil_dex_payload() {
  dex::DexBuilder b;
  auto m = b.cls("com.yayavoice.sdk.dynamic.Voice").method("run", 1);
  m.const_str(1, "+1900PREMIUM");
  m.const_str(2, "OWNED");
  m.invoke_static("android.telephony.SmsManager", "sendTextMessage", {1, 2});
  m.return_void();
  m.done();
  return b.build().serialize();
}

/// Attacker app: only WRITE_EXTERNAL_STORAGE; drops the fake jar on boot.
apk::ApkFile attacker_apk() {
  manifest::Manifest man;
  man.package = "com.attacker.flashlight";
  man.add_permission(manifest::kWriteExternalStorage);
  man.components.push_back(manifest::Component{
      manifest::ComponentKind::Activity, "com.attacker.flashlight.Main",
      true});
  dex::DexBuilder b;
  auto m = b.cls("com.attacker.flashlight.Main", "android.app.Activity")
               .method("onCreate", 1);
  m.const_str(1, "evil.bin");
  m.invoke_static("android.content.res.AssetManager", "open", {1});
  m.move_result(2);
  m.new_instance(3, "java.io.FileOutputStream");
  m.const_str(4, kSdcardJar);
  m.invoke_virtual("java.io.FileOutputStream", "<init>", {3, 4});
  m.label("copy");
  m.invoke_virtual("java.io.InputStream", "read", {2});
  m.move_result(5);
  m.if_eqz(5, "done");
  m.invoke_virtual("java.io.OutputStream", "write", {3, 5});
  m.jump("copy");
  m.label("done");
  m.return_void();
  m.done();
  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(b.build());
  apk.put("assets/evil.bin", evil_dex_payload());
  apk.sign("attacker");
  return apk;
}

/// Run one app on an existing device, returning engine results.
RunResult run_on(os::Device& device, const apk::ApkFile& apk,
                 std::uint64_t seed) {
  EXPECT_TRUE(device.install(apk).ok());
  const auto man = apk.read_manifest();
  support::Rng rng(seed);
  return run_app(
      device, std::make_shared<const dex::DexFile>(*apk.read_classes_dex()),
      man, rng);
}

appgen::GeneratedApp victim_app(bool verified) {
  appgen::AppSpec spec;
  spec.package = kVictimPkg;
  spec.category = "Game Casual";
  spec.min_sdk = 16;
  spec.vuln = appgen::VulnKind::DexExternalStorage;
  spec.vuln_integrity_check = verified;
  support::Rng rng(404);
  return appgen::build_app(spec, rng);
}

bool sent_sms(const RunResult& result) {
  for (const auto& e : result.vm_events) {
    if (e.kind == "sms") return true;
  }
  return false;
}

TEST(CodeInjection, VictimAloneRunsGenuinePayload) {
  os::Device device;
  const auto victim = victim_app(/*verified=*/false);
  const auto result =
      run_on(device, apk::ApkFile::deserialize(victim.apk), 1);
  EXPECT_EQ(result.monkey.outcome, monkey::Outcome::kExercised)
      << result.monkey.crash_message;
  ASSERT_FALSE(result.binaries.empty());
  EXPECT_FALSE(sent_sms(result));  // genuine payload is benign
}

TEST(CodeInjection, AttackerHijacksVulnerableVictim) {
  os::Device device;
  // 1. Attacker runs first and poisons the shared cache location.
  const auto attacker = run_on(device, attacker_apk(), 2);
  ASSERT_EQ(attacker.monkey.outcome, monkey::Outcome::kExercised)
      << attacker.monkey.crash_message;
  ASSERT_TRUE(device.vfs().exists(kSdcardJar));

  // 2. Victim starts, sees the cached file, loads it — and executes the
  //    attacker's code with the victim's identity.
  const auto victim = victim_app(/*verified=*/false);
  const auto result =
      run_on(device, apk::ApkFile::deserialize(victim.apk), 3);
  EXPECT_EQ(result.monkey.outcome, monkey::Outcome::kExercised)
      << result.monkey.crash_message;
  EXPECT_TRUE(sent_sms(result));  // the premium SMS went out

  // 3. The interceptor captured the attacker's binary from the victim's
  //    process — forensics shows exactly what ran.
  bool captured_evil = false;
  for (const auto& binary : result.binaries) {
    if (binary.path == kSdcardJar) {
      captured_evil = (binary.bytes == evil_dex_payload());
    }
  }
  EXPECT_TRUE(captured_evil);
}

TEST(CodeInjection, VerifiedLoaderDefeatsTheAttack) {
  os::Device device;
  (void)run_on(device, attacker_apk(), 4);
  ASSERT_TRUE(device.vfs().exists(kSdcardJar));

  const auto victim = victim_app(/*verified=*/true);
  const auto result =
      run_on(device, apk::ApkFile::deserialize(victim.apk), 5);
  EXPECT_EQ(result.monkey.outcome, monkey::Outcome::kExercised)
      << result.monkey.crash_message;
  // Hash pinning: the tampered file is rejected, no SMS, no load of the
  // attacker's code.
  EXPECT_FALSE(sent_sms(result));
  for (const auto& binary : result.binaries) {
    EXPECT_NE(binary.bytes, evil_dex_payload());
  }
}

TEST(CodeInjection, VerifiedLoaderStillLoadsGenuinePayload) {
  os::Device device;  // no attacker
  const auto victim = victim_app(/*verified=*/true);
  const auto result =
      run_on(device, apk::ApkFile::deserialize(victim.apk), 6);
  EXPECT_EQ(result.monkey.outcome, monkey::Outcome::kExercised)
      << result.monkey.crash_message;
  bool loaded_genuine = false;
  for (const auto& binary : result.binaries) {
    if (binary.path == kSdcardJar) loaded_genuine = true;
  }
  EXPECT_TRUE(loaded_genuine);
}

// ---------------------------------------------------------------------------
// Variant 2: trojanized runtime app (other-app internal storage).
// ---------------------------------------------------------------------------

support::Bytes evil_native_lib() {
  nativebin::NativeLibrary lib("libCore", nativebin::Arch::Arm);
  dex::DexBuilder b;
  auto m = b.cls("evil.air.Core").static_method("airInit", 0);
  m.const_str(0, "steal_everything");
  m.invoke_static("libc", "exec", {0});
  m.const_int(1, 0);
  m.ret(1);
  m.done();
  lib.code() = b.build();
  return lib.serialize();
}

apk::ApkFile trojan_air_runtime() {
  manifest::Manifest man;
  man.package = "com.adobe.air";  // impersonated package
  dex::DexBuilder b;
  b.cls("com.adobe.air.Runtime").method("onCreate", 1).return_void().done();
  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(b.build());
  apk.put("lib/armeabi/libCore.so", evil_native_lib());
  apk.sign("definitely-not-adobe");
  return apk;
}

TEST(CodeInjection, TrojanizedRuntimeHijacksNativeLoaders) {
  appgen::AppSpec spec;
  spec.package = "com.devicescape.usc.wifinow";
  spec.category = "Tools";
  spec.vuln = appgen::VulnKind::NativeOtherAppInternal;
  support::Rng rng(99);
  const auto victim = appgen::build_app(spec, rng);

  os::Device device;
  // The trojan replaces the genuine companion runtime.
  ASSERT_TRUE(device.install(trojan_air_runtime()).ok());
  const auto result =
      run_on(device, apk::ApkFile::deserialize(victim.apk), 7);
  EXPECT_EQ(result.monkey.outcome, monkey::Outcome::kExercised)
      << result.monkey.crash_message;
  bool executed_evil = false;
  for (const auto& e : result.vm_events) {
    if (e.kind == "exec" && e.detail == "steal_everything") {
      executed_evil = true;
    }
  }
  EXPECT_TRUE(executed_evil);
}

}  // namespace
}  // namespace dydroid::core
