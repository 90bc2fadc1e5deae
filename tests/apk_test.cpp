// Unit tests for the SimApk container: entries, CRC trap, signing.
#include <gtest/gtest.h>

#include "apk/apk.hpp"
#include "dex/builder.hpp"

namespace dydroid::apk {
namespace {

using support::ParseError;
using support::to_bytes;

ApkFile make_sample() {
  manifest::Manifest m;
  m.package = "com.example.app";
  m.components.push_back(manifest::Component{
      manifest::ComponentKind::Activity, "com.example.app.Main", true});

  dex::DexBuilder b;
  b.cls("com.example.app.Main", "android.app.Activity")
      .method("onCreate", 1)
      .return_void()
      .done();

  ApkFile apk;
  apk.write_manifest(m);
  apk.write_classes_dex(b.build());
  apk.put("assets/data.bin", to_bytes("hello"));
  apk.put("lib/armeabi/libfoo.so", to_bytes("nativecode"));
  apk.sign("dev-key-1");
  return apk;
}

TEST(Apk, EntriesRoundTrip) {
  const auto apk = make_sample();
  const auto bytes = apk.serialize();
  EXPECT_TRUE(looks_like_apk(bytes));
  const auto back = ApkFile::deserialize(bytes);
  EXPECT_EQ(back.entry_count(), 4u);
  ASSERT_TRUE(back.get("assets/data.bin").has_value());
  EXPECT_EQ(support::to_string(*back.get("assets/data.bin")), "hello");
}

TEST(Apk, ManifestRoundTrip) {
  const auto back = ApkFile::deserialize(make_sample().serialize());
  const auto m = back.read_manifest();
  EXPECT_EQ(m.package, "com.example.app");
  ASSERT_EQ(m.components.size(), 1u);
}

TEST(Apk, ClassesDexRoundTrip) {
  const auto back = ApkFile::deserialize(make_sample().serialize());
  const auto dex = back.read_classes_dex();
  ASSERT_TRUE(dex.has_value());
  EXPECT_NE(dex->find_class("com.example.app.Main"), nullptr);
}

TEST(Apk, MissingClassesDexIsNullopt) {
  ApkFile apk;
  EXPECT_EQ(apk.read_classes_dex(), std::nullopt);
}

TEST(Apk, MissingManifestThrows) {
  ApkFile apk;
  EXPECT_THROW((void)apk.read_manifest(), ParseError);
}

TEST(Apk, SignatureVerifies) {
  // The same key over the same entries signs the same: two builds of the
  // sample serialize identically.
  const auto apk = make_sample();
  EXPECT_EQ(apk.signer(), "dev-key-1");
  EXPECT_EQ(apk.serialize(), make_sample().serialize());
}

TEST(Apk, SignatureBreaksOnTamper) {
  // The signature hashes the entries: re-signing tampered content with the
  // same key writes a different signature than the one it carried.
  auto apk = make_sample();
  apk.put("assets/data.bin", to_bytes("tampered"));
  const auto stale = apk.serialize();
  apk.sign("dev-key-1");
  EXPECT_NE(apk.serialize(), stale);
}

TEST(Apk, SignatureSurvivesSerialization) {
  const auto bytes = make_sample().serialize();
  const auto back = ApkFile::deserialize(bytes);
  EXPECT_EQ(back.signer(), "dev-key-1");
  EXPECT_EQ(back.serialize(), bytes);
}

TEST(Apk, CrcTrapDetected) {
  auto apk = make_sample();
  EXPECT_EQ(apk.first_crc_mismatch(), std::nullopt);
  apk.put_with_bad_crc("assets/trap.bin", to_bytes("trap"));
  EXPECT_EQ(apk.first_crc_mismatch(), "assets/trap.bin");
}

TEST(Apk, CrcTrapLenientParseSucceeds) {
  auto apk = make_sample();
  apk.put_with_bad_crc("assets/trap.bin", to_bytes("trap"));
  apk.sign("dev-key-1");
  const auto bytes = apk.serialize();
  // Device install (lenient): OK — the app still runs.
  EXPECT_NO_THROW((void)ApkFile::deserialize(bytes, ParseMode::kLenient));
}

TEST(Apk, CrcTrapStrictParseThrows) {
  auto apk = make_sample();
  apk.put_with_bad_crc("assets/trap.bin", to_bytes("trap"));
  const auto bytes = apk.serialize();
  // Tooling (strict, apktool-like): crashes — anti-repackaging works.
  EXPECT_THROW((void)ApkFile::deserialize(bytes, ParseMode::kStrict),
               ParseError);
}

TEST(Apk, RemoveEntry) {
  auto apk = make_sample();
  EXPECT_TRUE(apk.remove("assets/data.bin"));
  EXPECT_FALSE(apk.remove("assets/data.bin"));
  EXPECT_FALSE(apk.get("assets/data.bin").has_value());
}

TEST(Apk, BadMagicThrows) {
  auto bytes = make_sample().serialize();
  bytes[0] = 'Z';
  EXPECT_THROW((void)ApkFile::deserialize(bytes), ParseError);
}

TEST(Apk, EntryNamesSorted) {
  const auto names = make_sample().entry_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

}  // namespace
}  // namespace dydroid::apk
