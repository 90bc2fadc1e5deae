// Unit tests for the SimDevice substrate: VFS permission semantics, network
// gating, package manager, system services.
#include <gtest/gtest.h>

#include "dex/builder.hpp"
#include "os/device.hpp"

namespace dydroid::os {
namespace {

using support::to_bytes;

Principal app(std::string pkg, bool write_ext = false) {
  Principal p;
  p.pkg = std::move(pkg);
  p.has_write_external = write_ext;
  return p;
}

TEST(PathClassify, Domains) {
  EXPECT_EQ(classify_path("/system/lib/libc.so").domain, PathDomain::kSystem);
  const auto info = classify_path("/data/data/com.a.b/files/x.dex");
  EXPECT_EQ(info.domain, PathDomain::kAppPrivate);
  EXPECT_EQ(info.owner, "com.a.b");
  EXPECT_EQ(classify_path("/mnt/sdcard/dl/x.jar").domain,
            PathDomain::kExternalStorage);
  EXPECT_EQ(classify_path("/tmp/x").domain, PathDomain::kOther);
}

TEST(Vfs, OwnerWritesOwnInternalStorage) {
  Vfs vfs(18);
  EXPECT_TRUE(
      vfs.write_file(app("com.a"), "/data/data/com.a/files/f", to_bytes("x")));
  EXPECT_TRUE(vfs.exists("/data/data/com.a/files/f"));
}

TEST(Vfs, ForeignInternalStorageDenied) {
  Vfs vfs(18);
  const auto s =
      vfs.write_file(app("com.evil"), "/data/data/com.a/files/f", to_bytes("x"));
  EXPECT_FALSE(s.ok());
}

TEST(Vfs, ForeignInternalStorageReadable) {
  // Pre-scoped-storage: other apps' files are readable — this is the
  // "internal storage of other apps" DCL vulnerability variant.
  Vfs vfs(18);
  ASSERT_TRUE(vfs.write_file(app("com.a"), "/data/data/com.a/lib/l.so",
                             to_bytes("lib")));
  EXPECT_TRUE(vfs.read_file("/data/data/com.a/lib/l.so").has_value());
}

TEST(Vfs, ExternalStorageWritableByAnyonePre44) {
  Vfs vfs(18);  // API 18 < 19 (Android 4.4)
  EXPECT_TRUE(
      vfs.write_file(app("any.app"), "/mnt/sdcard/x.dex", to_bytes("d")));
}

TEST(Vfs, ExternalStorageNeedsPermissionFrom44) {
  Vfs vfs(19);
  EXPECT_FALSE(
      vfs.write_file(app("no.perm"), "/mnt/sdcard/x.dex", to_bytes("d")).ok());
  EXPECT_TRUE(
      vfs.write_file(app("with.perm", true), "/mnt/sdcard/x.dex", to_bytes("d"))
          .ok());
}

TEST(Vfs, SystemPathsAppDenied) {
  Vfs vfs(18);
  EXPECT_FALSE(
      vfs.write_file(app("com.a"), "/system/lib/evil.so", to_bytes("x")).ok());
  EXPECT_TRUE(vfs.write_file(Principal::system(), "/system/lib/ok.so",
                             to_bytes("x"))
                  .ok());
}

TEST(Vfs, DeleteRespectsPermissions) {
  Vfs vfs(18);
  ASSERT_TRUE(vfs.write_file(app("com.a"), "/data/data/com.a/f", to_bytes("x")));
  EXPECT_FALSE(vfs.delete_file(app("com.b"), "/data/data/com.a/f").ok());
  EXPECT_TRUE(vfs.delete_file(app("com.a"), "/data/data/com.a/f").ok());
  EXPECT_FALSE(vfs.exists("/data/data/com.a/f"));
}

TEST(Vfs, RenameMovesContent) {
  Vfs vfs(18);
  ASSERT_TRUE(vfs.write_file(app("com.a"), "/data/data/com.a/f", to_bytes("x")));
  EXPECT_TRUE(
      vfs.rename(app("com.a"), "/data/data/com.a/f", "/data/data/com.a/g").ok());
  EXPECT_FALSE(vfs.exists("/data/data/com.a/f"));
  EXPECT_EQ(support::to_string(*vfs.read_file("/data/data/com.a/g")), "x");
}

TEST(Vfs, RenameToUnwritableDestinationFails) {
  Vfs vfs(18);
  ASSERT_TRUE(vfs.write_file(app("com.a"), "/data/data/com.a/f", to_bytes("x")));
  EXPECT_FALSE(
      vfs.rename(app("com.a"), "/data/data/com.a/f", "/system/lib/f").ok());
  EXPECT_TRUE(vfs.exists("/data/data/com.a/f"));  // source preserved
}

TEST(Vfs, CapacityEnforced) {
  Vfs vfs(18, 10);
  EXPECT_TRUE(
      vfs.write_file(app("com.a"), "/data/data/com.a/f", to_bytes("12345")));
  const auto s =
      vfs.write_file(app("com.a"), "/data/data/com.a/g", to_bytes("123456"));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.error().find("full"), std::string::npos);
}

TEST(Vfs, OverwriteAccountsUsedBytes) {
  Vfs vfs(18, 10);
  ASSERT_TRUE(
      vfs.write_file(app("com.a"), "/data/data/com.a/f", to_bytes("12345678")));
  // Overwriting with a smaller file frees space.
  ASSERT_TRUE(vfs.write_file(app("com.a"), "/data/data/com.a/f", to_bytes("1")));
  EXPECT_EQ(vfs.used_bytes(), 1u);
  EXPECT_TRUE(
      vfs.write_file(app("com.a"), "/data/data/com.a/g", to_bytes("123456789")));
}

TEST(Vfs, ListDirPrefixBoundary) {
  Vfs vfs(18);
  ASSERT_TRUE(vfs.write_file(app("com.a"), "/data/data/com.a/x", to_bytes("1")));
  ASSERT_TRUE(
      vfs.write_file(app("com.ab"), "/data/data/com.ab/y", to_bytes("2")));
  const auto files = vfs.list_dir("/data/data/com.a");
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], "/data/data/com.a/x");
}

TEST(Vfs, RelativePathRejected) {
  Vfs vfs(18);
  EXPECT_FALSE(vfs.write_file(app("com.a"), "relative/path", to_bytes("x")).ok());
}

TEST(Network, FetchHostedPayload) {
  SystemServices services;
  Network net(&services);
  const auto payload = support::Blob::of_string("payload");
  net.host("http://cdn.example.com/p.dex", payload);
  auto r = net.fetch("http://cdn.example.com/p.dex");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), support::to_bytes("payload"));
  // A fetch is a view of the hosted payload, not a copy.
  EXPECT_TRUE(r.value().shares_buffer_with(payload));
  ASSERT_EQ(net.fetch_log().size(), 1u);
  EXPECT_TRUE(net.fetch_log()[0].succeeded);
  EXPECT_EQ(net.fetch_log()[0].bytes, 7u);
}

TEST(Network, UnknownUrl404) {
  SystemServices services;
  Network net(&services);
  EXPECT_FALSE(net.fetch("http://nowhere/x").ok());
}

TEST(Network, AirplaneModeBlocks) {
  SystemServices services;
  Network net(&services);
  net.host("http://a/b", support::Blob::of_string("x"));
  services.set_airplane_mode(true);
  services.set_wifi_enabled(false);
  EXPECT_FALSE(net.fetch("http://a/b").ok());
  // WiFi back on overrides airplane mode (Table VIII config 2).
  services.set_wifi_enabled(true);
  EXPECT_TRUE(net.fetch("http://a/b").ok());
}

// The Bouncer-evasion gate (§III-B) is whether the scenario hosts the URL:
// unhosted, the fetch fails and is logged; hosted, the same fetch succeeds.
TEST(Network, DynamicHandlerGates) {
  SystemServices services;
  Network net(&services);
  EXPECT_FALSE(net.fetch("http://gate/x").ok());
  net.host("http://gate/x", support::Blob::of_string("now"));
  EXPECT_TRUE(net.fetch("http://gate/x").ok());
  ASSERT_EQ(net.fetch_log().size(), 2u);
  EXPECT_FALSE(net.fetch_log()[0].succeeded);
  EXPECT_TRUE(net.fetch_log()[1].succeeded);
}

apk::ApkFile tiny_apk(const std::string& pkg) {
  manifest::Manifest m;
  m.package = pkg;
  dex::DexBuilder b;
  b.cls(pkg + ".Main", "android.app.Activity")
      .method("onCreate", 1)
      .return_void()
      .done();
  apk::ApkFile apk;
  apk.write_manifest(m);
  apk.write_classes_dex(b.build());
  apk.put("lib/armeabi/libfoo.so", to_bytes("native"));
  apk.sign("key-" + pkg);
  return apk;
}

TEST(PackageManager, InstallRegistersAndExtracts) {
  Device device;
  ASSERT_TRUE(device.install(tiny_apk("com.a.b")).ok());
  EXPECT_TRUE(device.package_manager().is_installed("com.a.b"));
  EXPECT_TRUE(device.vfs().exists("/data/app/com.a.b.apk"));
  // Native libs extracted into the app's private lib dir.
  EXPECT_TRUE(device.vfs().exists("/data/data/com.a.b/lib/libfoo.so"));
}

TEST(PackageManager, InstalledPackagesListed) {
  Device device;
  ASSERT_TRUE(device.install(tiny_apk("com.a")).ok());
  ASSERT_TRUE(device.install(tiny_apk("com.b")).ok());
  const auto pkgs = device.package_manager().installed_packages();
  EXPECT_EQ(pkgs.size(), 2u);
}

TEST(PackageManager, MalformedApkRejected) {
  Device device;
  apk::ApkFile bad;  // no manifest
  EXPECT_FALSE(device.install(bad).ok());
}

TEST(Device, SystemLibsPreinstalled) {
  Device device;
  EXPECT_TRUE(device.vfs().exists("/system/lib/libc.so"));
}

TEST(Services, ClockAdvances) {
  SystemServices services;
  const auto t0 = services.current_time_ms();
  services.advance_ms(1000);
  EXPECT_EQ(services.current_time_ms(), t0 + 1000);
  services.set_time_ms(5);
  EXPECT_EQ(services.current_time_ms(), 5);
}

TEST(Services, LocationGating) {
  SystemServices services;
  EXPECT_FALSE(services.last_known_location().empty());
  services.set_location_enabled(false);
  EXPECT_TRUE(services.last_known_location().empty());
}

TEST(Services, ContentProviders) {
  Device device;
  EXPECT_EQ(device.services().query_provider(kUriContacts),
            "Alice;+1555000001");
  EXPECT_EQ(device.services().query_provider(kUriMms), "+1555000002;photo");
  EXPECT_TRUE(device.services().query_provider("content://unknown").empty());
}

}  // namespace
}  // namespace dydroid::os
