// Behavioural verification of the malware family payloads: each family's
// characteristic actions are observable as VM events when the payload runs
// — grounding the Table VII descriptions in executed behaviour.
#include <gtest/gtest.h>

#include "dex/builder.hpp"
#include "malware/families.hpp"
#include "nativebin/native_library.hpp"
#include "os/device.hpp"
#include "vm/vm.hpp"

namespace dydroid::malware {
namespace {

constexpr const char* kPkg = "com.family.host";

struct Harness {
  os::Device device;
  manifest::Manifest manifest;  // the Vm borrows it
  std::unique_ptr<vm::Vm> vm;

  bool saw(const std::string& kind, const std::string& detail_part = "") {
    for (const auto& e : vm->events()) {
      if (e.kind != kind) continue;
      if (detail_part.empty() ||
          e.detail.find(detail_part) != std::string::npos) {
        return true;
      }
    }
    return false;
  }
};

/// Load a dex-family payload into a VM and invoke its run() entry.
Harness run_dex_payload(Family family, const std::string& payload_class,
                        const std::string& c2_body) {
  Harness h;
  PayloadOptions options;
  options.c2_url = "http://c2.test/gate";
  support::Rng rng(1);
  const auto payload = generate_payload(family, options, rng);

  manifest::Manifest man;
  man.package = kPkg;
  man.add_permission(manifest::kInternet);
  dex::DexBuilder b;
  auto m = b.cls(std::string(kPkg) + ".Main", "android.app.Activity")
               .method("go", 1);
  m.const_str(1, "/data/data/com.family.host/files/p.dex");
  m.const_str(2, "");
  m.new_instance(3, "dalvik.system.DexClassLoader");
  m.invoke_virtual("dalvik.system.DexClassLoader", "<init>", {3, 1, 2});
  m.const_str(4, payload_class);
  m.invoke_virtual("dalvik.system.DexClassLoader", "loadClass", {3, 4});
  m.move_result(5);
  m.invoke_virtual("java.lang.Class", "newInstance", {5});
  m.move_result(5);
  m.invoke_virtual(payload_class, "run", {5});
  m.return_void();
  m.done();
  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(b.build());
  apk.sign("k");
  EXPECT_TRUE(h.device.install(apk).ok());
  EXPECT_TRUE(h.device.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.family.host/files/p.dex",
                              payload)
                  .ok());
  if (!c2_body.empty()) {
    h.device.network().host("http://c2.test/gate",
                            support::Blob::of_string(c2_body));
  }
  h.manifest = man;
  h.vm = std::make_unique<vm::Vm>(h.device, h.manifest);
  h.vm->load_app(std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));
  auto main = h.vm->instantiate(std::string(kPkg) + ".Main");
  (void)h.vm->call_method(main, "go");
  return h;
}

TEST(SwissCodeMonkeys, ExfiltratesIdentifiersAndObeysSmsCommand) {
  auto h = run_dex_payload(Family::SwissCodeMonkeys,
                           "com.swisscodemonkeys.payload.CoreService", "sms");
  // Identifier exfil goes out over the C2 connection...
  EXPECT_TRUE(h.saw("net_write"));
  // ...and the remote "sms" command triggers a premium text.
  EXPECT_TRUE(h.saw("sms", "PREMIUM"));
}

TEST(SwissCodeMonkeys, ObeysInstallCommand) {
  auto h = run_dex_payload(Family::SwissCodeMonkeys,
                           "com.swisscodemonkeys.payload.CoreService",
                           "install");
  EXPECT_TRUE(h.saw("exec", "pm install"));
  EXPECT_FALSE(h.saw("sms"));
}

TEST(SwissCodeMonkeys, ObeysNavigateCommand) {
  auto h = run_dex_payload(Family::SwissCodeMonkeys,
                           "com.swisscodemonkeys.payload.CoreService",
                           "navigate");
  EXPECT_TRUE(h.saw("homepage", "landing.blackhole.example"));
}

TEST(SwissCodeMonkeys, SurvivesDeadC2WithoutCrashing) {
  // Regression: the command-loop fetch is guarded by try/catch, so an
  // unreachable C2 leaves the payload silent instead of crashing the host
  // (and the try-enter handler target must survive variant mutation).
  auto h = run_dex_payload(Family::SwissCodeMonkeys,
                           "com.swisscodemonkeys.payload.CoreService",
                           /*c2_body=*/"");  // C2 not hosted
  EXPECT_TRUE(h.saw("net_write"));  // exfil attempt still recorded
  EXPECT_FALSE(h.saw("sms"));       // no command ever arrived
}

TEST(AdwareAirpushMinimob, PushesAdsShortcutsAndHomepage) {
  auto h = run_dex_payload(Family::AdwareAirpushMinimob,
                           "com.airpush.minimob.AdEngine", "");
  EXPECT_TRUE(h.saw("notification", "HOT DEALS"));
  EXPECT_TRUE(h.saw("shortcut", "FreeCoins"));
  EXPECT_TRUE(h.saw("homepage"));
}

TEST(ChathookPtrace, RootsHooksAndExfiltratesChats) {
  // Native family: load the .so and call its exported inject symbol.
  Harness h;
  PayloadOptions options;
  support::Rng rng(2);
  const auto lib = generate_payload(Family::ChathookPtrace, options, rng);
  ASSERT_TRUE(nativebin::looks_like_native(lib));

  manifest::Manifest man;
  man.package = kPkg;
  dex::DexBuilder b;
  auto cls = b.cls(std::string(kPkg) + ".Main", "android.app.Activity");
  cls.native_method("inject", 0);
  auto m = cls.method("go", 1);
  m.const_str(1, "/data/data/com.family.host/lib/libchat.so");
  m.invoke_static("java.lang.System", "load", {1});
  m.invoke_static(std::string(kPkg) + ".Main", "inject");
  m.move_result(2);
  m.ret(2);
  m.done();
  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(b.build());
  apk.sign("k");
  ASSERT_TRUE(h.device.install(apk).ok());
  ASSERT_TRUE(h.device.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.family.host/lib/libchat.so",
                              lib)
                  .ok());
  h.manifest = man;
  h.vm = std::make_unique<vm::Vm>(h.device, h.manifest);
  h.vm->load_app(std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));
  auto main = h.vm->instantiate(std::string(kPkg) + ".Main");
  EXPECT_EQ(h.vm->call_method(main, "go").as_int(), 1);

  // The paper's description, step by step: root, ptrace both chat apps,
  // hook the chat window, dump and exfiltrate.
  EXPECT_TRUE(h.saw("su"));
  EXPECT_TRUE(h.saw("ptrace", "com.tencent.mobileqq"));
  EXPECT_TRUE(h.saw("ptrace", "com.tencent.mm"));
  EXPECT_TRUE(h.saw("hook", "ChatWindow"));
  EXPECT_TRUE(h.saw("exec", "dump_chat_history"));
  EXPECT_TRUE(h.saw("net_write"));
}

}  // namespace
}  // namespace dydroid::malware
