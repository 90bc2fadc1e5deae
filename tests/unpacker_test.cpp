// Runtime unpacker tests: packed app -> recovered original (the
// DexHunter/AppSpear capability the paper discusses in §VI).
#include <gtest/gtest.h>

#include "appgen/generator.hpp"
#include "core/pipeline.hpp"
#include "core/unpacker.hpp"
#include "obfuscation/packer.hpp"

namespace dydroid::core {
namespace {

appgen::GeneratedApp make_packed(bool trap = false) {
  appgen::AppSpec spec;
  spec.package = "com.packed.victim";
  spec.category = "Entertainment";
  spec.ad_sdk = true;  // interesting original behaviour worth recovering
  spec.dex_encryption = true;
  spec.anti_repackaging = trap;
  support::Rng rng(55);
  return appgen::build_app(spec, rng);
}

TEST(Unpacker, RecoversOriginalClassesDex) {
  const auto packed = make_packed();
  const auto result = unpack_packed_app(packed.apk);
  ASSERT_TRUE(result.ok()) << result.error();
  const auto& recovered = result.value().apk;
  // The recovered dex contains the ORIGINAL app classes, which the packed
  // stub hid.
  const auto dexfile = recovered.read_classes_dex();
  ASSERT_TRUE(dexfile.has_value());
  EXPECT_NE(dexfile->find_class("com.google.ads.sdk.MediaLoader"), nullptr);
  EXPECT_EQ(dexfile->find_class("com.shield.core.StubApplication"), nullptr);
  // Container artifacts removed, android:name cleared.
  EXPECT_FALSE(recovered.get("assets/shield_payload.bin").has_value());
  EXPECT_FALSE(recovered.get("lib/armeabi/libshield.so").has_value());
  EXPECT_TRUE(recovered.read_manifest().application_name.empty());
  EXPECT_NE(result.value().payload_path.find(".shield"), std::string::npos);
}

TEST(Unpacker, RecoveredAppIsAnalyzableAndRunnable) {
  const auto packed = make_packed();
  const auto result = unpack_packed_app(packed.apk);
  ASSERT_TRUE(result.ok()) << result.error();
  const auto bytes = result.value().apk.serialize();

  // Static analysis now sees the original DCL code...
  DyDroid pipeline;
  const auto report = pipeline.analyze(bytes, 3);
  EXPECT_FALSE(report.obfuscation.dex_encryption);
  EXPECT_TRUE(report.static_dcl.dex_dcl);  // the ad SDK is visible again
  // ...and the app still runs end to end.
  EXPECT_EQ(report.status, DynamicStatus::kExercised)
      << report.crash_message;
  EXPECT_TRUE(report.intercepted(CodeKind::Dex));
}

TEST(Unpacker, WorksDespiteAntiRepackagingTrap) {
  // The trap crashes the REWRITER; the unpacker runs the app instead and
  // strips the trap from its output.
  const auto packed = make_packed(/*trap=*/true);
  const auto result = unpack_packed_app(packed.apk);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_FALSE(result.value().apk.first_crc_mismatch().has_value());
}

TEST(Unpacker, RejectsUnpackedApps) {
  appgen::AppSpec spec;
  spec.package = "com.not.packed";
  spec.category = "Tools";
  spec.ad_sdk = true;
  support::Rng rng(1);
  const auto app = appgen::build_app(spec, rng);
  const auto result = unpack_packed_app(app.apk);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error().find("packer pattern"), std::string::npos);
}

TEST(Unpacker, RejectsGarbage) {
  EXPECT_FALSE(unpack_packed_app(support::to_bytes("junk")).ok());
}

TEST(Unpacker, RoundTripPackUnpackPreservesBehaviour) {
  // pack(unpack(pack(app))) — the recovered dex byte-equals the original.
  appgen::AppSpec spec;
  spec.package = "com.roundtrip.app";
  spec.category = "Tools";
  spec.own_dex_dcl = true;
  support::Rng rng(7);
  const auto original = appgen::build_app(spec, rng);
  const auto original_apk = apk::ApkFile::deserialize(original.apk);
  const auto original_dex = *original_apk.get(apk::kClassesDexEntry);

  const auto packed = obfuscation::pack(original_apk, {});
  const auto result = unpack_packed_app(packed.serialize());
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(*result.value().apk.get(apk::kClassesDexEntry), original_dex);
}

}  // namespace
}  // namespace dydroid::core
