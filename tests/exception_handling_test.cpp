// Try/catch (TryEnter/TryExit) semantics: handler dispatch, nesting,
// scoping, uncatchable budget violations, and the realistic use case —
// SDKs that survive offline errors instead of crashing the host app.
#include <gtest/gtest.h>

#include "dex/builder.hpp"
#include "monkey/monkey.hpp"
#include "os/device.hpp"
#include "support/trace.hpp"
#include "vm/vm.hpp"

namespace dydroid::vm {
namespace {

struct Env {
  os::Device device;
  manifest::Manifest manifest;  // the Vm borrows it
  std::unique_ptr<Vm> vm;
};

Env boot(dex::DexFile dexfile, VmLimits limits = {},
         std::string_view launcher = "") {
  Env env;
  auto& man = env.manifest;
  man.package = "com.trycatch.app";
  man.add_permission(manifest::kInternet);
  if (!launcher.empty()) {
    man.components.push_back(manifest::Component{
        manifest::ComponentKind::Activity, std::string(launcher), true});
  }
  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(std::move(dexfile));
  apk.sign("k");
  EXPECT_TRUE(env.device.install(apk).ok());
  env.vm = std::make_unique<Vm>(env.device, man, limits);
  env.vm->load_app(
      std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));
  return env;
}

TEST(TryCatch, CatchesThrowAndReceivesMessage) {
  dex::DexBuilder b;
  auto m = b.cls("a.T").static_method("f", 0);
  m.try_enter(0, "handler");
  m.const_str(1, "boom");
  m.throw_str(1);
  m.label("handler");
  m.ret(0);  // returns the caught message
  m.done();
  auto env = boot(b.build());
  EXPECT_EQ(env.vm->call_static("a.T", "f").as_str(), "boom");
}

TEST(TryCatch, NoExceptionSkipsHandler) {
  dex::DexBuilder b;
  auto m = b.cls("a.T").static_method("f", 0);
  m.try_enter(0, "handler");
  m.const_int(1, 7);
  m.try_exit();
  m.ret(1);
  m.label("handler");
  m.const_int(1, -1);
  m.ret(1);
  m.done();
  auto env = boot(b.build());
  EXPECT_EQ(env.vm->call_static("a.T", "f").as_int(), 7);
}

TEST(TryCatch, CatchesExceptionsFromCallees) {
  dex::DexBuilder b;
  b.cls("a.Deep").static_method("die", 0)
      .const_str(0, "from callee")
      .throw_str(0)
      .done();
  auto m = b.cls("a.T").static_method("f", 0);
  m.try_enter(0, "handler");
  m.invoke_static("a.Deep", "die");
  m.const_int(1, 0);
  m.ret(1);
  m.label("handler");
  m.const_int(1, 1);
  m.ret(1);
  m.done();
  auto env = boot(b.build());
  EXPECT_EQ(env.vm->call_static("a.T", "f").as_int(), 1);
}

TEST(TryCatch, CatchesFrameworkExceptions) {
  // IOException from loading a missing file is catchable.
  dex::DexBuilder b;
  auto m = b.cls("a.T").static_method("f", 0);
  m.try_enter(0, "handler");
  m.new_instance(1, "java.io.FileInputStream");
  m.const_str(2, "/no/such/file");
  m.invoke_virtual("java.io.FileInputStream", "<init>", {1, 2});
  m.const_str(3, "opened?!");
  m.ret(3);
  m.label("handler");
  m.ret(0);
  m.done();
  auto env = boot(b.build());
  EXPECT_NE(env.vm->call_static("a.T", "f").as_str().find(
                "FileNotFoundException"),
            std::string::npos);
}

TEST(TryCatch, NestedHandlersUnwindInnermostFirst) {
  dex::DexBuilder b;
  auto m = b.cls("a.T").static_method("f", 0);
  m.try_enter(0, "outer");
  m.try_enter(1, "inner");
  m.const_str(2, "x");
  m.throw_str(2);
  m.label("inner");
  m.const_int(3, 10);
  // Re-throw from the inner handler: the outer one catches.
  m.const_str(2, "y");
  m.throw_str(2);
  m.label("outer");
  m.ret(0);
  m.done();
  auto env = boot(b.build());
  EXPECT_EQ(env.vm->call_static("a.T", "f").as_str(), "y");
}

TEST(TryCatch, HandlerScopeEndsAtTryExit) {
  dex::DexBuilder b;
  auto m = b.cls("a.T").static_method("f", 0);
  m.try_enter(0, "handler");
  m.nop();
  m.try_exit();
  m.const_str(1, "after scope");
  m.throw_str(1);  // no active handler anymore
  m.label("handler");
  m.const_str(2, "caught?!");
  m.ret(2);
  m.done();
  auto env = boot(b.build());
  EXPECT_THROW((void)env.vm->call_static("a.T", "f"), VmException);
}

TEST(TryCatch, AnrIsNotCatchable) {
  dex::DexBuilder b;
  auto m = b.cls("a.T").static_method("f", 0);
  m.try_enter(0, "handler");
  m.label("spin");
  m.jump("spin");
  m.label("handler");
  m.return_void();
  m.done();
  VmLimits limits;
  limits.max_steps_per_entry = 1000;
  auto env = boot(b.build(), limits);
  try {
    (void)env.vm->call_static("a.T", "f");
    FAIL();
  } catch (const VmException& e) {
    EXPECT_NE(std::string(e.what()).find("ANR"), std::string::npos);
  }
}

TEST(TryCatch, StackOverflowIsNotCatchable) {
  dex::DexBuilder b;
  auto m = b.cls("a.T").static_method("rec", 0);
  m.try_enter(0, "handler");
  m.invoke_static("a.T", "rec");
  m.label("handler");
  m.return_void();
  m.done();
  VmLimits limits;
  limits.max_call_depth = 8;
  auto env = boot(b.build(), limits);
  // Each frame pushes a handler, but the overflow must still surface:
  // the topmost frame's guard rethrows past every handler...
  // ...and the OUTER frames' handlers must not swallow it either.
  EXPECT_THROW((void)env.vm->call_static("a.T", "rec"), VmException);
}

// Only the VM's own budget guards are uncatchable; they are marked as such,
// not recognized by their text, so an app's look-alike message is caught.
TEST(TryCatch, AppThrownAnrTextIsCatchable) {
  dex::DexBuilder b;
  auto cls = b.cls("a.T");
  for (const auto& [name, text] :
       {std::pair{"anr", "ANR: app-made"},
        std::pair{"overflow", "StackOverflowError"}}) {
    auto m = cls.static_method(name, 0);
    m.try_enter(0, "handler");
    m.const_str(1, text);
    m.throw_str(1);
    m.label("handler");
    m.ret(0);
    m.done();
  }
  auto env = boot(b.build());
  EXPECT_EQ(env.vm->call_static("a.T", "anr").as_str(), "ANR: app-made");
  EXPECT_EQ(env.vm->call_static("a.T", "overflow").as_str(),
            "StackOverflowError");
}

TEST(TryCatch, ClassForNameMissDeliversClassNotFound) {
  dex::DexBuilder b;
  auto m = b.cls("a.T").static_method("f", 0);
  m.try_enter(0, "handler");
  m.const_str(1, "com.missing.Plugin");
  m.invoke_static("java.lang.Class", "forName", {1});
  m.label("handler");
  m.ret(0);
  m.done();
  auto env = boot(b.build());
  EXPECT_EQ(env.vm->call_static("a.T", "f").as_str(),
            "ClassNotFoundException: com.missing.Plugin");
}

// Class delegation, framework dispatch and loader construction make no
// VmException on the success path; a miss at the API boundary makes one.
TEST(VmExceptionCounter, SuccessfulRunMakesNone) {
  constexpr const char* kPayload = "/data/data/com.trycatch.app/files/p.dex";
  dex::DexBuilder payload;
  payload.cls("com.payload.Impl").method("run", 1).const_int(1, 7).ret(1)
      .done();
  dex::DexBuilder b;
  b.cls("com.trycatch.app.Helper").static_method("work", 0).return_void()
      .done();
  auto m = b.cls("com.trycatch.app.Main", "android.app.Activity")
               .method("onCreate", 1);
  // App classes, resolved past the boot loader.
  m.invoke_static("com.trycatch.app.Helper", "work");
  m.new_instance(1, "com.trycatch.app.Helper");
  // Intrinsics: through the framework superclass, then directly.
  m.const_int(2, 5);
  m.invoke_virtual("com.trycatch.app.Main", "setContentView", {0, 2});
  m.invoke_static("android.telephony.TelephonyManager", "getDeviceId");
  // A DexClassLoader, and a class loaded and run through it.
  m.const_str(3, kPayload);
  m.const_str(4, "/data/data/com.trycatch.app/cache");
  m.new_instance(5, "dalvik.system.DexClassLoader");
  m.invoke_virtual("dalvik.system.DexClassLoader", "<init>", {5, 3, 4});
  m.const_str(6, "com.payload.Impl");
  m.invoke_virtual("dalvik.system.DexClassLoader", "loadClass", {5, 6});
  m.move_result(7);
  m.invoke_virtual("java.lang.Class", "newInstance", {7});
  m.move_result(8);
  m.invoke_virtual("com.payload.Impl", "run", {8});
  m.return_void();
  m.done();
  auto env = boot(b.build(), {}, "com.trycatch.app.Main");
  ASSERT_TRUE(env.device.vfs()
                  .write_file(os::Principal::system(), kPayload,
                              payload.build().serialize())
                  .ok());
  const auto made = [] {
    const auto snapshot = support::metrics_snapshot();
    const auto* counter = snapshot.counter("vm.exceptions");
    return counter == nullptr ? 0u : counter->value;
  };

  support::set_metrics_enabled(true);
  support::metrics_reset();
  support::Rng rng(1);
  const auto result = monkey::run_monkey(*env.vm, {}, rng);
  EXPECT_EQ(result.outcome, monkey::Outcome::kExercised)
      << result.crash_message;
  EXPECT_EQ(made(), 0u);
  EXPECT_THROW((void)env.vm->call_static("com.trycatch.app.Missing", "f"),
               VmException);
  EXPECT_EQ(made(), 1u);
  support::set_metrics_enabled(false);
}

TEST(TryCatch, RoundTripsThroughSerialization) {
  dex::DexBuilder b;
  auto m = b.cls("a.T").static_method("f", 0);
  m.try_enter(0, "h");
  m.try_exit();
  m.label("h");
  m.return_void();
  m.done();
  const auto dexfile = b.build();
  const auto back = dex::DexFile::deserialize(dexfile.serialize());
  EXPECT_EQ(back.validate(), std::nullopt);
  const auto& code = back.find_class("a.T")->methods[0].code;
  EXPECT_EQ(code[0].op, dex::Op::TryEnter);
  EXPECT_EQ(code[1].op, dex::Op::TryExit);
}

// The realistic pattern: an update SDK that tolerates being offline. The
// host app keeps running (Table II "exercised", not "crash") and the DCL
// simply does not happen in that session.
TEST(TryCatch, OfflineTolerantSdkDoesNotCrashHost) {
  dex::DexBuilder b;
  auto sdk = b.cls("com.updates.sdk.Fetcher").static_method("boot", 0);
  sdk.try_enter(0, "offline");
  sdk.new_instance(1, "java.net.URL");
  sdk.const_str(2, "http://updates.example/u.dex");
  sdk.invoke_virtual("java.net.URL", "<init>", {1, 2});
  sdk.invoke_virtual("java.net.URL", "openStream", {1});  // throws offline
  sdk.move_result(3);
  sdk.try_exit();
  sdk.label("offline");
  sdk.return_void();
  sdk.done();
  auto m = b.cls("com.trycatch.app.Main", "android.app.Activity")
               .method("onCreate", 1);
  m.invoke_static("com.updates.sdk.Fetcher", "boot");
  m.done();

  manifest::Manifest man;
  man.package = "com.trycatch.app";
  man.add_permission(manifest::kInternet);
  man.components.push_back(manifest::Component{
      manifest::ComponentKind::Activity, "com.trycatch.app.Main", true});
  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(b.build());
  apk.sign("k");
  os::Device device;
  ASSERT_TRUE(device.install(apk).ok());
  device.services().set_airplane_mode(true);
  device.services().set_wifi_enabled(false);
  Vm vm(device, man);
  vm.load_app(std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));
  monkey::MonkeyConfig config;
  support::Rng rng(1);
  const auto result = monkey::run_monkey(vm, config, rng);
  EXPECT_EQ(result.outcome, monkey::Outcome::kExercised)
      << result.crash_message;
}

}  // namespace
}  // namespace dydroid::vm
