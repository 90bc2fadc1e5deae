// App Execution Engine tests: automatic storage-full recovery, crash
// propagation, interception aggregation.
#include <gtest/gtest.h>

#include "appgen/generator.hpp"
#include "core/engine.hpp"
#include "dex/builder.hpp"

namespace dydroid::core {
namespace {

apk::ApkFile hog_apk(std::size_t chunks) {
  // An app whose onCreate writes `chunks` 4 KiB files into its cache, then
  // loads a dex. With a tight device capacity this trips "storage full".
  manifest::Manifest man;
  man.package = "com.engine.hog";
  man.components.push_back(manifest::Component{
      manifest::ComponentKind::Activity, "com.engine.hog.Main", true});

  dex::DexBuilder payload;
  payload.cls("pay.P").method("run", 1).return_void().done();

  dex::DexBuilder b;
  auto m = b.cls("com.engine.hog.Main", "android.app.Activity")
               .method("onCreate", 1);
  // Write the payload to files/ then balloon the cache.
  m.const_str(1, "p.bin");
  m.invoke_static("android.content.res.AssetManager", "open", {1});
  m.move_result(2);
  m.new_instance(3, "java.io.FileOutputStream");
  m.const_str(4, "/data/data/com.engine.hog/files/p.dex");
  m.invoke_virtual("java.io.FileOutputStream", "<init>", {3, 4});
  m.label("cp");
  m.invoke_virtual("java.io.InputStream", "read", {2});
  m.move_result(5);
  m.if_eqz(5, "balloon");
  m.invoke_virtual("java.io.OutputStream", "write", {3, 5});
  m.jump("cp");
  // Balloon: chunked big writes into cache.
  m.label("balloon");
  m.const_int(6, static_cast<std::int64_t>(chunks));
  m.label("loop");
  m.if_eqz(6, "load");
  m.const_str(7, "/data/data/com.engine.hog/cache/blob");
  m.invoke_static("java.lang.String", "valueOf", {6});
  m.move_result(8);
  m.concat(7, 7, 8);
  m.new_instance(9, "java.io.FileOutputStream");
  m.invoke_virtual("java.io.FileOutputStream", "<init>", {9, 7});
  m.const_str(10,
              std::string(4096, 'x'));  // 4 KiB constant
  m.invoke_static("java.lang.String", "getBytes", {10});
  m.move_result(11);
  m.invoke_virtual("java.io.OutputStream", "write", {9, 11});
  m.const_int(12, 1);
  m.sub(6, 6, 12);
  m.jump("loop");
  m.label("load");
  m.new_instance(13, "dalvik.system.DexClassLoader");
  m.const_str(14, "/data/data/com.engine.hog/files/p.dex");
  m.const_str(15, "");
  m.invoke_virtual("dalvik.system.DexClassLoader", "<init>", {13, 14, 15});
  m.return_void();
  m.done();

  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(b.build());
  apk.put("assets/p.bin", payload.build().serialize());
  apk.sign("k");
  return apk;
}

TEST(Engine, StorageFullRecoversByClearingCache) {
  // Capacity fits the APK + payload + a few blobs, but not all 30.
  os::DeviceConfig config;
  config.storage_capacity_bytes = 110 * 1024;
  os::Device device(config);
  const auto apk = hog_apk(30);
  ASSERT_TRUE(device.install(apk).ok());
  const auto man = apk.read_manifest();
  support::Rng rng(1);
  const auto result = run_app(
      device, std::make_shared<const dex::DexFile>(*apk.read_classes_dex()),
      man, rng);
  // First run crashes with storage full; the engine clears the cache and
  // the retry is reported.
  EXPECT_TRUE(result.storage_recovered);
}

TEST(Engine, AmpleStorageNoRecoveryNeeded) {
  os::Device device;  // unlimited
  const auto apk = hog_apk(5);
  ASSERT_TRUE(device.install(apk).ok());
  const auto man = apk.read_manifest();
  support::Rng rng(1);
  const auto result = run_app(
      device, std::make_shared<const dex::DexFile>(*apk.read_classes_dex()),
      man, rng);
  EXPECT_FALSE(result.storage_recovered);
  EXPECT_EQ(result.monkey.outcome, monkey::Outcome::kExercised)
      << result.monkey.crash_message;
  EXPECT_FALSE(result.events.empty());
}

TEST(Engine, EventsAggregatedFromInterceptor) {
  appgen::AppSpec spec;
  spec.package = "com.engine.multi";
  spec.category = "Tools";
  spec.ad_sdk = true;
  spec.analytics_sdk = true;
  spec.sdk_native_dcl = true;
  support::Rng grng(9);
  const auto app = appgen::build_app(spec, grng);
  os::Device device;
  app.scenario.apply(device);
  const auto apk = apk::ApkFile::deserialize(app.apk);
  ASSERT_TRUE(device.install(apk).ok());
  const auto man = apk.read_manifest();
  support::Rng rng(2);
  const auto result = run_app(
      device, std::make_shared<const dex::DexFile>(*apk.read_classes_dex()),
      man, rng);
  EXPECT_EQ(result.monkey.outcome, monkey::Outcome::kExercised)
      << result.monkey.crash_message;
  // Three behaviours, three+ DCL events, mixed kinds.
  EXPECT_GE(result.events.size(), 3u);
  bool saw_dex = false, saw_native = false;
  for (const auto& event : result.events) {
    saw_dex |= event.kind == CodeKind::Dex;
    saw_native |= event.kind == CodeKind::Native;
  }
  EXPECT_TRUE(saw_dex);
  EXPECT_TRUE(saw_native);
  EXPECT_GE(result.blocked_mutations, 1u);  // ad SDK delete was blocked
}

}  // namespace
}  // namespace dydroid::core
