// Unit tests for SimNative libraries.
#include <gtest/gtest.h>

#include "dex/builder.hpp"
#include "nativebin/native_library.hpp"

namespace dydroid::nativebin {
namespace {

NativeLibrary make_lib() {
  NativeLibrary lib("libhook", Arch::Arm);
  dex::DexBuilder b;
  auto cls = b.cls("native.hook.Core");
  cls.static_method("attach", 1).invoke_static("libc", "ptrace", {0}).done();
  cls.static_method("decrypt", 2)
      .invoke_static("libc", "xor_decrypt", {0, 1})
      .move_result(2)
      .ret(2)
      .done();
  cls.method("helper", 1).return_void().done();  // instance: not exported
  lib.code() = b.build();
  return lib;
}

TEST(NativeLibrary, SymbolsAreStaticMethods) {
  const auto lib = make_lib();
  EXPECT_TRUE(lib.find_symbol("attach").has_value());
  EXPECT_TRUE(lib.find_symbol("decrypt").has_value());
  EXPECT_FALSE(lib.find_symbol("helper").has_value());
  EXPECT_FALSE(lib.find_symbol("missing").has_value());
}

TEST(NativeLibrary, SerializeRoundTrip) {
  const auto lib = make_lib();
  const auto bytes = lib.serialize();
  EXPECT_TRUE(looks_like_native(bytes));
  const auto back = NativeLibrary::deserialize(bytes);
  EXPECT_EQ(back.soname(), "libhook");
  EXPECT_EQ(back.arch(), Arch::Arm);
  EXPECT_TRUE(back.find_symbol("attach").has_value());
}

TEST(NativeLibrary, X86ArchPreserved) {
  NativeLibrary lib("libx", Arch::X86);
  const auto back = NativeLibrary::deserialize(lib.serialize());
  EXPECT_EQ(back.arch(), Arch::X86);
}

TEST(NativeLibrary, BadMagicThrows) {
  auto bytes = make_lib().serialize();
  bytes[1] = 'Q';
  EXPECT_THROW((void)NativeLibrary::deserialize(bytes), support::ParseError);
}

TEST(NativeLibrary, CorruptInnerDexThrows) {
  auto bytes = make_lib().serialize();
  bytes.resize(bytes.size() - 10);
  EXPECT_THROW((void)NativeLibrary::deserialize(bytes), support::ParseError);
}

TEST(NativeLibrary, MapLibraryName) {
  EXPECT_EQ(map_library_name("hook"), "libhook.so");
  EXPECT_EQ(map_library_name(""), "lib.so");
}

TEST(NativeLibrary, DexMagicIsNotNative) {
  dex::DexBuilder b;
  b.cls("a.B").method("f", 0).return_void().done();
  EXPECT_FALSE(looks_like_native(b.build().serialize()));
}

}  // namespace
}  // namespace dydroid::nativebin
