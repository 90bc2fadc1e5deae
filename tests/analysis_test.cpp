// Analysis-substrate tests: decompiler (apktool/baksmali analogue),
// rewriter (permission injection + anti-repackaging), CFG construction.
#include <gtest/gtest.h>

#include "analysis/cfg.hpp"
#include "analysis/decompiler.hpp"
#include "analysis/rewriter.hpp"
#include "dex/builder.hpp"
#include "obfuscation/poison.hpp"

namespace dydroid::analysis {
namespace {

apk::ApkFile sample_apk() {
  manifest::Manifest m;
  m.package = "com.sample.app";
  m.components.push_back(manifest::Component{
      manifest::ComponentKind::Activity, "com.sample.app.Main", true});
  dex::DexBuilder b;
  b.cls("com.sample.app.Main", "android.app.Activity")
      .method("onCreate", 1)
      .return_void()
      .done();
  apk::ApkFile apk;
  apk.write_manifest(m);
  apk.write_classes_dex(b.build());
  apk.put("assets/data.bin", support::to_bytes("x"));
  apk.sign("dev");
  return apk;
}

TEST(Decompiler, ProducesIr) {
  const auto result = decompile(sample_apk().serialize());
  ASSERT_TRUE(result.ok()) << result.error();
  const auto& ir = result.value();
  EXPECT_EQ(ir.manifest.package, "com.sample.app");
  ASSERT_NE(ir.classes_dex, nullptr);
  EXPECT_NE(ir.classes_dex->find_class("com.sample.app.Main"), nullptr);
  EXPECT_EQ(ir.entries.size(), 3u);
}

TEST(Decompiler, FailsOnPoisonedDex) {
  auto apk = sample_apk();
  auto dexfile = *apk.read_classes_dex();
  obfuscation::poison_anti_decompilation(dexfile);
  apk.write_classes_dex(dexfile);
  const auto result = decompile(apk.serialize());
  EXPECT_FALSE(result.ok());
}

TEST(Decompiler, FailsOnGarbage) {
  EXPECT_FALSE(decompile(support::to_bytes("not an apk")).ok());
}

TEST(Decompiler, ToleratesMissingDex) {
  apk::ApkFile apk;
  manifest::Manifest m;
  m.package = "a.b";
  apk.write_manifest(m);
  const auto result = decompile(apk.serialize());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().classes_dex, nullptr);
}

TEST(Decompiler, LocalBytecodeStoreDetection) {
  const auto with_assets = decompile(sample_apk().serialize());
  EXPECT_TRUE(has_local_bytecode_store(with_assets.value()));

  apk::ApkFile bare;
  manifest::Manifest m;
  m.package = "a.b";
  bare.write_manifest(m);
  dex::DexBuilder b;
  b.cls("a.b.Main").method("onCreate", 1).return_void().done();
  bare.write_classes_dex(b.build());
  const auto without = decompile(bare.serialize());
  EXPECT_FALSE(has_local_bytecode_store(without.value()));
}

TEST(Rewriter, InjectsPermissionAndResigns) {
  const auto rewritten = rewrite_with_permission(
      apk::ApkImage::from_file(sample_apk()), manifest::kWriteExternalStorage);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error();
  const auto apk = apk::ApkFile::deserialize(rewritten.value().bytes());
  EXPECT_TRUE(
      apk.read_manifest().has_permission(manifest::kWriteExternalStorage));
  EXPECT_EQ(apk.signer(), kResignKey);
}

TEST(Rewriter, CrashesOnAntiRepackagingTrap) {
  auto apk = sample_apk();
  obfuscation::plant_anti_repackaging_trap(apk);
  apk.sign("dev");
  const auto rewritten = rewrite_with_permission(
      apk::ApkImage::parse(support::Blob::take(apk.serialize())),
      manifest::kWriteExternalStorage);
  EXPECT_FALSE(rewritten.ok());
  EXPECT_NE(rewritten.error().find("CRC"), std::string::npos);
}

TEST(Rewriter, TrappedApkStillInstallsOnDevice) {
  // The same bytes that crash the rewriter install fine (lenient device).
  auto apk = sample_apk();
  obfuscation::plant_anti_repackaging_trap(apk);
  apk.sign("dev");
  EXPECT_NO_THROW((void)apk::ApkFile::deserialize(apk.serialize(),
                                                  apk::ParseMode::kLenient));
}

// ---------------------------------------------------------------------------
// CFG.
// ---------------------------------------------------------------------------

dex::Method method_of(dex::DexFile& dexfile, const char* name = "f") {
  return *dexfile.classes().at(0).find_method(name);
}

TEST(Cfg, StraightLineIsOneBlock) {
  dex::DexBuilder b;
  b.cls("a.B").static_method("f", 0)
      .const_int(0, 1)
      .const_int(1, 2)
      .add(2, 0, 1)
      .ret(2)
      .done();
  auto dexfile = b.build();
  const auto cfg = build_cfg(method_of(dexfile));
  ASSERT_EQ(cfg.blocks.size(), 1u);
  EXPECT_TRUE(cfg.blocks[0].successors.empty());
}

TEST(Cfg, BranchSplitsBlocks) {
  dex::DexBuilder b;
  auto m = b.cls("a.B").static_method("f", 1);
  m.if_eqz(0, "else");
  m.const_int(1, 1);
  m.ret(1);
  m.label("else");
  m.const_int(1, 2);
  m.ret(1);
  m.done();
  auto dexfile = b.build();
  const auto cfg = build_cfg(method_of(dexfile));
  ASSERT_EQ(cfg.blocks.size(), 3u);
  EXPECT_EQ(cfg.blocks[0].successors.size(), 2u);
  EXPECT_TRUE(cfg.blocks[1].successors.empty());
  EXPECT_TRUE(cfg.blocks[2].successors.empty());
}

TEST(Cfg, LoopHasBackEdge) {
  dex::DexBuilder b;
  auto m = b.cls("a.B").static_method("f", 1);
  m.label("top");
  m.if_eqz(0, "end");
  m.const_int(1, 1);
  m.sub(0, 0, 1);
  m.jump("top");
  m.label("end");
  m.return_void();
  m.done();
  auto dexfile = b.build();
  const auto cfg = build_cfg(method_of(dexfile));
  ASSERT_EQ(cfg.blocks.size(), 3u);
  // Body block loops back to the header.
  const auto& body = cfg.blocks[1];
  ASSERT_EQ(body.successors.size(), 1u);
  EXPECT_EQ(body.successors[0], 0u);
}

TEST(Cfg, EmptyMethodHasNoBlocks) {
  dex::Method m;
  EXPECT_TRUE(build_cfg(m).blocks.empty());
}

TEST(Cfg, BlockOfLocatesInstruction) {
  dex::DexBuilder b;
  auto m = b.cls("a.B").static_method("f", 1);
  m.if_eqz(0, "else");
  m.const_int(1, 1);
  m.ret(1);
  m.label("else");
  m.return_void();
  m.done();
  auto dexfile = b.build();
  const auto cfg = build_cfg(method_of(dexfile));
  // The branch at 0, its fall-through at 1 and its target at 3 lead blocks.
  ASSERT_EQ(cfg.blocks.size(), 3u);
  EXPECT_EQ(cfg.blocks[0].begin, 0u);
  EXPECT_EQ(cfg.blocks[0].end, 1u);
  EXPECT_EQ(cfg.blocks[1].begin, 1u);
  EXPECT_EQ(cfg.blocks[1].end, 3u);
  EXPECT_EQ(cfg.blocks[2].begin, 3u);
  EXPECT_EQ(cfg.blocks[2].end, 4u);
}

TEST(Cfg, BothBranchArmsToSameTargetDeduplicated) {
  dex::DexBuilder b;
  auto m = b.cls("a.B").static_method("f", 1);
  m.if_eqz(0, "next");
  m.label("next");
  m.return_void();
  m.done();
  auto dexfile = b.build();
  const auto cfg = build_cfg(method_of(dexfile));
  ASSERT_EQ(cfg.blocks.size(), 2u);
  EXPECT_EQ(cfg.blocks[0].successors.size(), 1u);
}

}  // namespace
}  // namespace dydroid::analysis
