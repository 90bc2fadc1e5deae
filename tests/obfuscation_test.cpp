// Obfuscation tests: language DB, lexical renamer + detector, packer,
// poisons, Table VI rule detector.
#include <gtest/gtest.h>

#include "analysis/decompiler.hpp"
#include "dex/builder.hpp"
#include "dex/disassembler.hpp"
#include "obfuscation/detector.hpp"
#include "obfuscation/language_db.hpp"
#include "obfuscation/lexical.hpp"
#include "obfuscation/packer.hpp"
#include "obfuscation/poison.hpp"

namespace dydroid::obfuscation {
namespace {

TEST(LanguageDb, DictionaryLookups) {
  EXPECT_TRUE(is_dictionary_word("download"));
  EXPECT_TRUE(is_dictionary_word("Download"));  // case-insensitive
  EXPECT_FALSE(is_dictionary_word("qzxv"));
  EXPECT_FALSE(is_dictionary_word(""));
  EXPECT_GT(dictionary_words().size(), 300u);
}

TEST(LanguageDb, IdentifierSplitting) {
  const auto words = split_identifier("updateCacheDir2");
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "update");
  EXPECT_EQ(words[1], "cache");
  EXPECT_EQ(words[2], "dir");
}

TEST(LanguageDb, SplitsUnderscoresAndDollar) {
  const auto words = split_identifier("load_file$inner");
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "load");
}

TEST(LanguageDb, DictionaryRatio) {
  EXPECT_DOUBLE_EQ(dictionary_ratio("downloadManager"), 1.0);
  EXPECT_DOUBLE_EQ(dictionary_ratio("a"), 0.0);
  EXPECT_NEAR(dictionary_ratio("updateQzxv"), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(dictionary_ratio("123"), 0.0);
}

// ---------------------------------------------------------------------------
// Lexical renamer.
// ---------------------------------------------------------------------------

struct RenamedApp {
  dex::DexFile dex;
  manifest::Manifest man;
};

RenamedApp make_renamed() {
  manifest::Manifest man;
  man.package = "com.sample.app";
  man.components.push_back(manifest::Component{
      manifest::ComponentKind::Activity, "com.sample.app.MainScreen", true});

  dex::DexBuilder b;
  auto main = b.cls("com.sample.app.MainScreen", "android.app.Activity");
  main.instance_field("downloadCount");
  main.method("onCreate", 1)
      .invoke_static("com.sample.app.UpdateHelper", "fetchUpdate")
      .done();
  auto helper = b.cls("com.sample.app.UpdateHelper");
  helper.static_method("fetchUpdate", 0).const_int(0, 1).ret(0).done();
  // Reflection-reachable class: name appears as a string constant.
  b.cls("com.sample.app.ReflectTarget").method("run", 1).return_void().done();
  auto user = b.cls("com.sample.app.ReflectUser");
  auto m = user.static_method("go", 0);
  m.const_str(0, "com.sample.app.ReflectTarget");
  m.invoke_static("java.lang.Class", "forName", {0});
  m.done();

  RenamedApp out;
  out.man = man;
  out.dex = rename_identifiers(b.build(), man);
  return out;
}

TEST(Lexical, ManifestComponentsKept) {
  const auto app = make_renamed();
  EXPECT_NE(app.dex.find_class("com.sample.app.MainScreen"), nullptr);
}

TEST(Lexical, HelpersRenamedWithinPackage) {
  const auto app = make_renamed();
  EXPECT_EQ(app.dex.find_class("com.sample.app.UpdateHelper"), nullptr);
  // Some class in the same package got a single-letter name.
  bool saw_short = false;
  for (const auto& cls : app.dex.classes()) {
    const auto dot = cls.name.rfind('.');
    const auto simple = cls.name.substr(dot + 1);
    if (simple.size() == 1) saw_short = true;
    if (cls.name != "com.sample.app.MainScreen" &&
        cls.name != "com.sample.app.ReflectTarget") {
      EXPECT_TRUE(cls.name.starts_with("com.sample.app."));
    }
  }
  EXPECT_TRUE(saw_short);
}

TEST(Lexical, StringReferencedClassKept) {
  const auto app = make_renamed();
  EXPECT_NE(app.dex.find_class("com.sample.app.ReflectTarget"), nullptr);
}

TEST(Lexical, LifecycleMethodsKept) {
  const auto app = make_renamed();
  const auto* main = app.dex.find_class("com.sample.app.MainScreen");
  ASSERT_NE(main, nullptr);
  EXPECT_NE(main->find_method("onCreate"), nullptr);
}

TEST(Lexical, CallSitesStayConsistent) {
  // The renamed call target must match the renamed method definition, so
  // the app still runs; verified structurally here.
  const auto app = make_renamed();
  const auto* main = app.dex.find_class("com.sample.app.MainScreen");
  const auto& ins = main->find_method("onCreate")->code.at(0);
  const auto& callee_cls = app.dex.string_at(ins.cls);
  const auto& callee_name = app.dex.string_at(ins.name);
  const auto* target = app.dex.find_class(callee_cls);
  ASSERT_NE(target, nullptr);
  EXPECT_NE(target->find_method(callee_name), nullptr);
}

TEST(Lexical, DetectorFlagsRenamedAndNotOriginal) {
  manifest::Manifest man;
  man.package = "com.sample.app";
  man.components.push_back(manifest::Component{
      manifest::ComponentKind::Activity, "com.sample.app.MainScreen", true});
  dex::DexBuilder b;
  auto cls = b.cls("com.sample.app.MainScreen", "android.app.Activity");
  cls.instance_field("downloadCount");
  cls.method("onCreate", 1).return_void().done();
  cls.method("updateCache", 1).return_void().done();
  cls.method("fetchImage", 1).return_void().done();
  const auto original = b.build();

  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(original);
  auto ir = analysis::decompile(apk.serialize());
  EXPECT_FALSE(detect_lexical(ir.value()));

  apk.write_classes_dex(rename_identifiers(original, man));
  ir = analysis::decompile(apk.serialize());
  EXPECT_TRUE(detect_lexical(ir.value()));
}

// ---------------------------------------------------------------------------
// Packer.
// ---------------------------------------------------------------------------

apk::ApkFile plain_app() {
  manifest::Manifest man;
  man.package = "com.tv.remote";
  man.components.push_back(manifest::Component{
      manifest::ComponentKind::Activity, "com.tv.remote.Main", true});
  dex::DexBuilder b;
  b.cls("com.tv.remote.Main", "android.app.Activity")
      .method("onCreate", 1)
      .return_void()
      .done();
  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(b.build());
  apk.sign("tv-dev");
  return apk;
}

TEST(Packer, XorCryptIsInvolution) {
  const auto data = support::to_bytes("some payload bytes");
  const auto enc = xor_crypt(data, "key16chars......");
  EXPECT_NE(enc, data);
  EXPECT_EQ(xor_crypt(enc, "key16chars......"), data);
}

TEST(Packer, OutputStructure) {
  const auto packed = pack(plain_app(), PackerOptions{});
  const auto man = packed.read_manifest();
  EXPECT_EQ(man.application_name, "com.shield.core.StubApplication");
  EXPECT_TRUE(packed.get("assets/shield_payload.bin").has_value());
  EXPECT_TRUE(packed.get("lib/armeabi/libshield.so").has_value());
  // Original components stay declared, but the stub dex lacks them.
  const auto stub = *packed.read_classes_dex();
  EXPECT_EQ(stub.find_class("com.tv.remote.Main"), nullptr);
  EXPECT_NE(stub.find_class("com.shield.core.StubApplication"), nullptr);
}

TEST(Packer, PayloadDecryptsToOriginalDex) {
  const auto original = plain_app();
  const auto packed = pack(original, PackerOptions{});
  const auto enc = packed.get("assets/shield_payload.bin");
  ASSERT_TRUE(enc.has_value());
  const auto dec = xor_crypt(*enc, PackerOptions{}.key);
  EXPECT_EQ(dec, original.get(apk::kClassesDexEntry)->to_bytes());
}

TEST(Packer, DetectorFlagsPackedApp) {
  const auto packed = pack(plain_app(), PackerOptions{});
  const auto report =
      analyze_obfuscation(analysis::decompile(packed.serialize()).value());
  EXPECT_TRUE(report.dex_encryption);
  EXPECT_FALSE(report.anti_decompilation);
}

TEST(Packer, DetectorRulesRequireAllThree) {
  // Rule 1 fails: container class declared but absent from the dex.
  auto apk = plain_app();
  auto man = apk.read_manifest();
  man.application_name = "com.missing.Container";
  apk.write_manifest(man);
  const auto report =
      analyze_obfuscation(analysis::decompile(apk.serialize()).value());
  EXPECT_FALSE(report.dex_encryption);
}

TEST(Packer, BadKeyLengthRejected) {
  PackerOptions options;
  options.key = "len7key";  // does not divide 4096
  EXPECT_THROW((void)pack(plain_app(), options), support::ParseError);
}

TEST(Packer, MissingDexRejected) {
  apk::ApkFile apk;
  manifest::Manifest man;
  man.package = "a.b";
  apk.write_manifest(man);
  EXPECT_THROW((void)pack(apk, PackerOptions{}), support::ParseError);
}

TEST(Packer, AntiRepackagingOptionPlantsTrap) {
  PackerOptions options;
  options.anti_repackaging = true;
  const auto packed = pack(plain_app(), options);
  EXPECT_TRUE(packed.first_crc_mismatch().has_value());
}

// ---------------------------------------------------------------------------
// Poisons.
// ---------------------------------------------------------------------------

TEST(Poison, AntiDecompilationDetectableAndVmSafe) {
  dex::DexBuilder b;
  b.cls("a.B").method("f", 1).return_void().done();
  auto dexfile = b.build();
  EXPECT_NO_THROW(dex::check_debug_info(dexfile));
  poison_anti_decompilation(dexfile);
  // The decompiler's debug-info check rejects the poison...
  EXPECT_THROW(dex::check_debug_info(dexfile), support::ParseError);
  // ...while VM-level deserialization ignores the poisoned section.
  EXPECT_NO_THROW((void)dex::DexFile::deserialize(dexfile.serialize()));
}

TEST(Detector, ReflectionRule) {
  dex::DexBuilder b;
  auto m = b.cls("a.B").static_method("f", 0);
  m.const_str(0, "a.C");
  m.invoke_static("java.lang.Class", "forName", {0});
  m.move_result(1);
  m.invoke_virtual("java.lang.reflect.Method", "invoke", {1});
  m.done();
  EXPECT_TRUE(detect_reflection(b.build()));

  dex::DexBuilder b2;
  b2.cls("a.B").static_method("f", 0).const_int(0, 1).ret(0).done();
  EXPECT_FALSE(detect_reflection(b2.build()));
}

TEST(Detector, NativeRuleFromLibEntry) {
  auto apk = plain_app();
  apk.put("lib/armeabi/libx.so", support::to_bytes("so"));
  const auto ir = analysis::decompile(apk.serialize());
  EXPECT_TRUE(detect_native(ir.value()));
}

TEST(Detector, NativeRuleFromLoadCall) {
  manifest::Manifest man;
  man.package = "a.b";
  dex::DexBuilder b;
  auto m = b.cls("a.b.Main").method("onCreate", 1);
  m.const_str(1, "engine");
  m.invoke_static("java.lang.System", "loadLibrary", {1});
  m.done();
  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(b.build());
  const auto ir = analysis::decompile(apk.serialize());
  EXPECT_TRUE(detect_native(ir.value()));
}

TEST(Detector, PlainAppHasNoFlags) {
  const auto report =
      analyze_obfuscation(analysis::decompile(plain_app().serialize()).value());
  EXPECT_FALSE(report.lexical);
  EXPECT_FALSE(report.reflection);
  EXPECT_FALSE(report.native_code);
  EXPECT_FALSE(report.dex_encryption);
  EXPECT_FALSE(report.anti_decompilation);
}

}  // namespace
}  // namespace dydroid::obfuscation
