// MiniMonkey tests: outcomes, determinism, event delivery.
#include <gtest/gtest.h>

#include "dex/builder.hpp"
#include "monkey/monkey.hpp"

namespace dydroid::monkey {
namespace {

apk::ApkFile make_apk(dex::DexFile dexfile, manifest::Manifest m) {
  apk::ApkFile apk;
  apk.write_manifest(m);
  apk.write_classes_dex(dexfile);
  apk.sign("k");
  return apk;
}

struct Ran {
  os::Device device;
  manifest::Manifest manifest;  // the Vm borrows it
  std::unique_ptr<vm::Vm> vm;
  MonkeyResult result;
};

Ran run(dex::DexFile dexfile, manifest::Manifest m, int events = 40,
        std::uint64_t seed = 1) {
  Ran ran;
  auto apk = make_apk(std::move(dexfile), m);
  EXPECT_TRUE(ran.device.install(apk).ok());
  ran.manifest = std::move(m);
  ran.vm = std::make_unique<vm::Vm>(ran.device, ran.manifest);
  ran.vm->load_app(
      std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));
  MonkeyConfig config;
  config.num_events = events;
  support::Rng rng(seed);
  ran.result = run_monkey(*ran.vm, config, rng);
  return ran;
}

manifest::Manifest man_with_launcher(const std::string& pkg,
                                     const std::string& activity) {
  manifest::Manifest m;
  m.package = pkg;
  m.components.push_back(manifest::Component{
      manifest::ComponentKind::Activity, activity, true});
  return m;
}

TEST(Monkey, ExercisesSimpleActivity) {
  dex::DexBuilder b;
  b.cls("a.b.Main", "android.app.Activity")
      .method("onCreate", 1)
      .return_void()
      .done();
  auto ran = run(b.build(), man_with_launcher("a.b", "a.b.Main"));
  EXPECT_EQ(ran.result.outcome, Outcome::kExercised);
  EXPECT_EQ(ran.result.events_delivered, 40);
}

TEST(Monkey, NoLauncherMeansNoActivity) {
  dex::DexBuilder b;
  b.cls("a.b.Svc", "android.app.Service")
      .method("onStartCommand", 1)
      .return_void()
      .done();
  manifest::Manifest m;
  m.package = "a.b";
  m.components.push_back(
      manifest::Component{manifest::ComponentKind::Service, "a.b.Svc", false});
  auto ran = run(b.build(), m);
  EXPECT_EQ(ran.result.outcome, Outcome::kNoActivity);
  EXPECT_EQ(ran.result.events_delivered, 0);
}

TEST(Monkey, CrashInOnCreateReported) {
  dex::DexBuilder b;
  b.cls("a.b.Main", "android.app.Activity")
      .method("onCreate", 1)
      .const_str(1, "boom")
      .throw_str(1)
      .done();
  auto ran = run(b.build(), man_with_launcher("a.b", "a.b.Main"));
  EXPECT_EQ(ran.result.outcome, Outcome::kCrash);
  EXPECT_EQ(ran.result.crash_message, "boom");
}

TEST(Monkey, CrashInClickHandlerReported) {
  dex::DexBuilder b;
  auto cls = b.cls("a.b.Main", "android.app.Activity");
  cls.method("onCreate", 1).return_void().done();
  auto m = cls.method("onClick", 2);
  m.const_str(2, "click crash");
  m.throw_str(2);
  m.done();
  auto ran = run(b.build(), man_with_launcher("a.b", "a.b.Main"));
  EXPECT_EQ(ran.result.outcome, Outcome::kCrash);
  EXPECT_EQ(ran.result.crash_message, "click crash");
}

TEST(Monkey, ApplicationContainerBootsBeforeActivity) {
  // Container sets a static flag; activity onCreate throws unless it's set.
  dex::DexBuilder b;
  auto app_cls = b.cls("shield.Container", "android.app.Application");
  app_cls.static_field("ready");
  auto boot = app_cls.method("onCreate", 1);
  boot.const_int(1, 1);
  boot.sput(1, "shield.Container", "ready");
  boot.done();
  auto main = b.cls("a.b.Main", "android.app.Activity").method("onCreate", 1);
  main.sget(1, "shield.Container", "ready");
  main.if_nez(1, "ok");
  main.const_str(2, "container did not run first");
  main.throw_str(2);
  main.label("ok");
  main.return_void();
  main.done();

  auto m = man_with_launcher("a.b", "a.b.Main");
  m.application_name = "shield.Container";
  auto ran = run(b.build(), m);
  EXPECT_EQ(ran.result.outcome, Outcome::kExercised)
      << ran.result.crash_message;
}

TEST(Monkey, ClickEventsReachHandler) {
  // Count clicks in a static field; expect a healthy share of the events.
  dex::DexBuilder b;
  auto cls = b.cls("a.b.Main", "android.app.Activity");
  cls.static_field("clicks");
  cls.method("onCreate", 1).return_void().done();
  auto m = cls.method("onClick", 2);
  m.sget(2, "a.b.Main", "clicks");
  m.const_int(3, 1);
  m.add(2, 2, 3);
  m.sput(2, "a.b.Main", "clicks");
  m.done();
  cls.static_method("readClicks", 0)
      .sget(0, "a.b.Main", "clicks")
      .ret(0)
      .done();
  auto ran = run(b.build(), man_with_launcher("a.b", "a.b.Main"), 200);
  EXPECT_EQ(ran.result.outcome, Outcome::kExercised);
  const auto clicks = ran.vm->call_static("a.b.Main", "readClicks").as_int();
  EXPECT_GT(clicks, 60);   // ~60% of 200 events are clicks
  EXPECT_LT(clicks, 200);  // but not all of them
}

TEST(Monkey, ServiceAndReceiverEventsDelivered) {
  dex::DexBuilder b;
  b.cls("a.b.Main", "android.app.Activity")
      .method("onCreate", 1)
      .return_void()
      .done();
  auto svc = b.cls("a.b.Sync", "android.app.Service");
  svc.static_field("started");
  auto sm = svc.method("onStartCommand", 1);
  sm.const_int(1, 1);
  sm.sput(1, "a.b.Sync", "started");
  sm.done();
  auto rcv = b.cls("a.b.Boot");
  rcv.static_field("received");
  auto rm = rcv.method("onReceive", 1);
  rm.const_int(1, 1);
  rm.sput(1, "a.b.Boot", "received");
  rm.done();

  auto m = man_with_launcher("a.b", "a.b.Main");
  m.components.push_back(
      manifest::Component{manifest::ComponentKind::Service, "a.b.Sync", false});
  m.components.push_back(
      manifest::Component{manifest::ComponentKind::Receiver, "a.b.Boot", false});
  auto ran = run(b.build(), m, 300);
  EXPECT_EQ(ran.result.outcome, Outcome::kExercised);
}

TEST(Monkey, DeterministicAcrossRuns) {
  dex::DexBuilder b;
  auto cls = b.cls("a.b.Main", "android.app.Activity");
  cls.method("onCreate", 1).return_void().done();
  auto m = cls.method("onClick", 2);
  m.const_str(2, "t");
  m.invoke_static("android.util.Log", "d", {2, 1});
  m.done();
  const auto dexfile = b.build();

  auto events_of = [&](std::uint64_t seed) {
    auto ran = run(dexfile, man_with_launcher("a.b", "a.b.Main"), 50, seed);
    std::vector<std::string> out;
    for (const auto& e : ran.vm->events()) out.push_back(e.detail);
    return out;
  };
  EXPECT_EQ(events_of(42), events_of(42));
  EXPECT_NE(events_of(42), events_of(43));
}

}  // namespace
}  // namespace dydroid::monkey
