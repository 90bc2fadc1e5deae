// Extended dynamic-loading semantics: multi-file dexPath lists, ODEX
// reloads, package-context class retrieval, loader parent delegation, and
// HTTPS connection subclasses — the long tail of §II's loading channels.
#include <gtest/gtest.h>

#include "dex/builder.hpp"
#include "os/device.hpp"
#include "vm/vm.hpp"

namespace dydroid::vm {
namespace {

constexpr const char* kPkg = "com.loading.app";

apk::ApkFile wrap(dex::DexFile dexfile, manifest::Manifest man) {
  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(dexfile);
  apk.sign("k");
  return apk;
}

manifest::Manifest man_for(const std::string& pkg) {
  manifest::Manifest m;
  m.package = pkg;
  m.add_permission(manifest::kInternet);
  return m;
}

support::Bytes payload_with(const std::string& cls, int value) {
  dex::DexBuilder b;
  b.cls(cls).method("run", 1).const_int(1, value).ret(1).done();
  return b.build().serialize();
}

struct Env {
  os::Device device;
  manifest::Manifest manifest;  // the Vm borrows it
  std::unique_ptr<Vm> vm;
};

Env boot(dex::DexFile dexfile, const std::string& pkg = kPkg) {
  Env env;
  auto man = man_for(pkg);
  auto apk = wrap(std::move(dexfile), man);
  EXPECT_TRUE(env.device.install(apk).ok());
  env.manifest = man;
  env.vm = std::make_unique<Vm>(env.device, env.manifest);
  env.vm->load_app(
      std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));
  return env;
}

// ---------------------------------------------------------------------------
// Multi-file dexPath (':'-separated list, as in real DexClassLoader).
// ---------------------------------------------------------------------------

TEST(MultiDex, ColonSeparatedListLoadsAllFiles) {
  dex::DexBuilder b;
  auto m = b.cls(std::string(kPkg) + ".Main", "android.app.Activity")
               .method("go", 1);
  m.const_str(1,
              "/data/data/com.loading.app/files/a.dex:"
              "/data/data/com.loading.app/files/b.dex");
  m.const_str(2, "/data/data/com.loading.app/cache");
  m.new_instance(3, "dalvik.system.DexClassLoader");
  m.invoke_virtual("dalvik.system.DexClassLoader", "<init>", {3, 1, 2});
  // Load one class from EACH file through the same loader.
  m.const_str(4, "pay.A");
  m.invoke_virtual("dalvik.system.DexClassLoader", "loadClass", {3, 4});
  m.move_result(5);
  m.invoke_virtual("java.lang.Class", "newInstance", {5});
  m.move_result(5);
  m.invoke_virtual("pay.A", "run", {5});
  m.move_result(6);
  m.const_str(4, "pay.B");
  m.invoke_virtual("dalvik.system.DexClassLoader", "loadClass", {3, 4});
  m.move_result(5);
  m.invoke_virtual("java.lang.Class", "newInstance", {5});
  m.move_result(5);
  m.invoke_virtual("pay.B", "run", {5});
  m.move_result(7);
  m.add(8, 6, 7);
  m.ret(8);
  m.done();
  auto env = boot(b.build());
  const auto sys = os::Principal::system();
  ASSERT_TRUE(env.device.vfs()
                  .write_file(sys, "/data/data/com.loading.app/files/a.dex",
                              payload_with("pay.A", 10))
                  .ok());
  ASSERT_TRUE(env.device.vfs()
                  .write_file(sys, "/data/data/com.loading.app/files/b.dex",
                              payload_with("pay.B", 32))
                  .ok());
  std::vector<std::string> paths;
  env.vm->instrumentation().on_dex_load =
      [&](LoaderKind, const std::string& dex_path, const std::string&,
          const StackTrace&) { paths.push_back(dex_path); };
  auto main = env.vm->instantiate(std::string(kPkg) + ".Main");
  EXPECT_EQ(env.vm->call_method(main, "go").as_int(), 42);
  // One event names both files; both odex by-products emitted.
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NE(paths[0].find("a.dex:"), std::string::npos);
  EXPECT_TRUE(
      env.device.vfs().exists("/data/data/com.loading.app/cache/a.odex"));
  EXPECT_TRUE(
      env.device.vfs().exists("/data/data/com.loading.app/cache/b.odex"));
}

// ---------------------------------------------------------------------------
// ODEX reload: the optimized by-product is itself loadable (paper: formats
// "APK, JAR, ZIP, DEX, and ODEX").
// ---------------------------------------------------------------------------

TEST(Odex, OptimizedOutputIsLoadable) {
  dex::DexBuilder b;
  auto cls = b.cls(std::string(kPkg) + ".Main", "android.app.Activity");
  auto first = cls.method("first", 1);
  first.const_str(1, "/data/data/com.loading.app/files/p.dex");
  first.const_str(2, "/data/data/com.loading.app/cache");
  first.new_instance(3, "dalvik.system.DexClassLoader");
  first.invoke_virtual("dalvik.system.DexClassLoader", "<init>", {3, 1, 2});
  first.return_void();
  first.done();
  auto second = cls.method("second", 1);
  second.const_str(1, "/data/data/com.loading.app/cache/p.odex");
  second.const_str(2, "/data/data/com.loading.app/cache");
  second.new_instance(3, "dalvik.system.DexClassLoader");
  second.invoke_virtual("dalvik.system.DexClassLoader", "<init>", {3, 1, 2});
  second.const_str(4, "pay.A");
  second.invoke_virtual("dalvik.system.DexClassLoader", "loadClass", {3, 4});
  second.move_result(5);
  second.invoke_virtual("java.lang.Class", "newInstance", {5});
  second.move_result(5);
  second.invoke_virtual("pay.A", "run", {5});
  second.move_result(6);
  second.ret(6);
  second.done();
  auto env = boot(b.build());
  ASSERT_TRUE(env.device.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.loading.app/files/p.dex",
                              payload_with("pay.A", 9))
                  .ok());
  auto main = env.vm->instantiate(std::string(kPkg) + ".Main");
  (void)env.vm->call_method(main, "first");
  EXPECT_EQ(env.vm->call_method(main, "second").as_int(), 9);
}

// ---------------------------------------------------------------------------
// Package contexts (paper §II).
// ---------------------------------------------------------------------------

TEST(PackageContext, LoadsClassesFromAnotherInstalledApp) {
  // The "other" app, installed alongside.
  dex::DexBuilder other;
  other.cls("com.provider.lib.Feature")
      .method("run", 1)
      .const_int(1, 77)
      .ret(1)
      .done();
  auto other_apk = wrap(other.build(), man_for("com.provider.host"));

  // The consumer: createPackageContext -> getClassLoader -> loadClass.
  dex::DexBuilder b;
  auto m = b.cls(std::string(kPkg) + ".Main", "android.app.Activity")
               .method("go", 1);
  m.const_str(1, "com.provider.host");
  m.invoke_static("android.content.Context", "createPackageContext", {1});
  m.move_result(2);
  m.invoke_virtual("android.content.Context", "getClassLoader", {2});
  m.move_result(3);
  m.const_str(4, "com.provider.lib.Feature");
  m.invoke_virtual("java.lang.ClassLoader", "loadClass", {3, 4});
  m.move_result(5);
  m.invoke_virtual("java.lang.Class", "newInstance", {5});
  m.move_result(5);
  m.invoke_virtual("com.provider.lib.Feature", "run", {5});
  m.move_result(6);
  m.ret(6);
  m.done();
  auto env = boot(b.build());
  ASSERT_TRUE(env.device.install(other_apk).ok());

  std::string logged_path;
  env.vm->instrumentation().on_dex_load =
      [&](LoaderKind kind, const std::string& path, const std::string&,
          const StackTrace&) {
        logged_path = path;
        EXPECT_EQ(kind, LoaderKind::PathClassLoader);
      };
  auto main = env.vm->instantiate(std::string(kPkg) + ".Main");
  EXPECT_EQ(env.vm->call_method(main, "go").as_int(), 77);
  // Mediated like every other loader: the other APK's path was logged.
  EXPECT_EQ(logged_path, "/data/app/com.provider.host.apk");
}

TEST(PackageContext, MissingPackageThrows) {
  dex::DexBuilder b;
  auto m = b.cls(std::string(kPkg) + ".Main", "android.app.Activity")
               .method("go", 1);
  m.const_str(1, "com.not.installed");
  m.invoke_static("android.content.Context", "createPackageContext", {1});
  m.done();
  auto env = boot(b.build());
  auto main = env.vm->instantiate(std::string(kPkg) + ".Main");
  EXPECT_THROW((void)env.vm->call_method(main, "go"), VmException);
}

// ---------------------------------------------------------------------------
// Parent delegation & HTTPS.
// ---------------------------------------------------------------------------

TEST(Delegation, ChildLoaderSeesHostClassesViaParent) {
  // A runtime loader's payload calls back into a host class: resolution
  // must delegate to the app loader.
  dex::DexBuilder payload;
  auto pm = payload.cls("pay.CallsBack").method("run", 1);
  pm.invoke_static(std::string(kPkg) + ".Host", "give");
  pm.move_result(1);
  pm.ret(1);
  pm.done();

  dex::DexBuilder b;
  b.cls(std::string(kPkg) + ".Host")
      .static_method("give", 0)
      .const_int(0, 123)
      .ret(0)
      .done();
  auto m = b.cls(std::string(kPkg) + ".Main", "android.app.Activity")
               .method("go", 1);
  m.const_str(1, "/data/data/com.loading.app/files/cb.dex");
  m.const_str(2, "");
  m.new_instance(3, "dalvik.system.DexClassLoader");
  m.invoke_virtual("dalvik.system.DexClassLoader", "<init>", {3, 1, 2});
  m.const_str(4, "pay.CallsBack");
  m.invoke_virtual("dalvik.system.DexClassLoader", "loadClass", {3, 4});
  m.move_result(5);
  m.invoke_virtual("java.lang.Class", "newInstance", {5});
  m.move_result(5);
  m.invoke_virtual("pay.CallsBack", "run", {5});
  m.move_result(6);
  m.ret(6);
  m.done();
  auto env = boot(b.build());
  ASSERT_TRUE(env.device.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.loading.app/files/cb.dex",
                              payload.build().serialize())
                  .ok());
  auto main = env.vm->instantiate(std::string(kPkg) + ".Main");
  EXPECT_EQ(env.vm->call_method(main, "go").as_int(), 123);
}

TEST(Https, SubclassHierarchyResolvesIntrinsics) {
  // HttpsURLConnection -> HttpURLConnection -> URLConnection chain.
  dex::DexBuilder b;
  auto m = b.cls(std::string(kPkg) + ".Main", "android.app.Activity")
               .method("fetch", 1);
  m.new_instance(1, "java.net.URL");
  m.const_str(2, "https://secure.example.com/x");
  m.invoke_virtual("java.net.URL", "<init>", {1, 2});
  m.invoke_virtual("java.net.URL", "openConnection", {1});
  m.move_result(3);
  // Call through the HTTPS class name explicitly.
  m.invoke_virtual("java.net.HttpsURLConnection", "getInputStream", {3});
  m.move_result(4);
  m.invoke_virtual("java.io.InputStream", "read", {4});
  m.move_result(5);
  m.invoke_static("java.lang.String", "valueOf", {5});
  m.move_result(6);
  m.ret(6);
  m.done();
  auto env = boot(b.build());
  env.device.network().host("https://secure.example.com/x",
                            support::Blob::of_string("tls-payload"));
  auto main = env.vm->instantiate(std::string(kPkg) + ".Main");
  EXPECT_EQ(env.vm->call_method(main, "fetch").as_str(), "tls-payload");
}

}  // namespace
}  // namespace dydroid::vm
