// Dynamic taint tracking tests: label propagation through registers,
// arithmetic, fields, calls, reflection and streams; sink reporting with
// concrete URIs; comparison against the static backend's blind spots.
#include <gtest/gtest.h>

#include "core/dynamic_taint.hpp"
#include "dex/builder.hpp"
#include "os/device.hpp"
#include "privacy/flowdroid.hpp"

namespace dydroid::core {
namespace {

using privacy::DataType;
using privacy::mask_of;

class DynamicTaintTest : public ::testing::Test {
 protected:
  /// Build an app from a body for static method T.t, run it under taint
  /// tracking, return the leaks.
  std::vector<DynamicLeak> run(
      const std::function<void(dex::DexBuilder&)>& define) {
    dex::DexBuilder b;
    define(b);
    dexfile_ = b.build();
    manifest::Manifest man;
    man.package = "com.taint.app";
    man.add_permission(manifest::kInternet);
    apk::ApkFile apk;
    apk.write_manifest(man);
    apk.write_classes_dex(dexfile_);
    apk.sign("k");
    EXPECT_TRUE(device_.install(apk).ok());
    manifest_ = man;
    vm_ = std::make_unique<vm::Vm>(device_, manifest_);
    vm_->load_app(
        std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));
    DynamicTaintTracker tracker(*vm_);
    (void)vm_->call_static("com.taint.app.T", "t");
    return tracker.leaks();
  }

  privacy::TaintMask dynamic_mask(
      const std::function<void(dex::DexBuilder&)>& define) {
    privacy::TaintMask mask = 0;
    for (const auto& leak : run(define)) mask |= leak.mask;
    return mask;
  }

  os::Device device_;
  manifest::Manifest manifest_;  // the Vm borrows it
  std::unique_ptr<vm::Vm> vm_;
  dex::DexFile dexfile_;
};

TEST_F(DynamicTaintTest, DirectSourceToSink) {
  const auto leaks = run([](dex::DexBuilder& b) {
    auto m = b.cls("com.taint.app.T").static_method("t", 0);
    m.invoke_static("android.telephony.TelephonyManager", "getDeviceId");
    m.move_result(0);
    m.invoke_static("android.util.Log", "d", {0, 0});
    m.done();
  });
  ASSERT_EQ(leaks.size(), 1u);
  EXPECT_EQ(leaks[0].mask, mask_of(DataType::Imei));
  EXPECT_EQ(leaks[0].sink_api, "android.util.Log.d");
  EXPECT_EQ(leaks[0].call_site_class, "com.taint.app.T");
}

TEST_F(DynamicTaintTest, PropagatesThroughConcatAndArith) {
  const auto mask = dynamic_mask([](dex::DexBuilder& b) {
    auto m = b.cls("com.taint.app.T").static_method("t", 0);
    m.invoke_static("android.location.LocationManager",
                    "getLastKnownLocation");
    m.move_result(0);
    m.const_str(1, "loc=");
    m.concat(2, 1, 0);
    m.invoke_static("android.util.Log", "d", {1, 2});
    m.done();
  });
  EXPECT_EQ(mask, mask_of(DataType::Location));
}

TEST_F(DynamicTaintTest, OverwriteClearsLabel) {
  const auto mask = dynamic_mask([](dex::DexBuilder& b) {
    auto m = b.cls("com.taint.app.T").static_method("t", 0);
    m.invoke_static("android.telephony.TelephonyManager", "getDeviceId");
    m.move_result(0);
    m.const_str(0, "clean");
    m.invoke_static("android.util.Log", "d", {0, 0});
    m.done();
  });
  EXPECT_EQ(mask, 0u);
}

TEST_F(DynamicTaintTest, FlowsThroughFieldsAndCalls) {
  const auto mask = dynamic_mask([](dex::DexBuilder& b) {
    auto holder = b.cls("com.taint.app.Holder");
    holder.static_field("stash");
    auto put = holder.static_method("collect", 0);
    put.invoke_static("android.accounts.AccountManager", "getAccounts");
    put.move_result(0);
    put.sput(0, "com.taint.app.Holder", "stash");
    put.done();
    auto m = b.cls("com.taint.app.T").static_method("t", 0);
    m.invoke_static("com.taint.app.Holder", "collect");
    m.sget(1, "com.taint.app.Holder", "stash");
    m.invoke_static("android.util.Log", "d", {1, 1});
    m.done();
  });
  EXPECT_EQ(mask, mask_of(DataType::Account));
}

// Instance fields and returns carry labels as static fields do: the IMSI
// goes through iput/iget on an app object, back out of an app method and
// through move-result before it reaches the sink.
TEST_F(DynamicTaintTest, FlowsThroughInstanceFieldsAndReturns) {
  const auto leaks = run([](dex::DexBuilder& b) {
    auto box = b.cls("com.taint.app.Box");
    box.instance_field("v");
    auto grab = box.method("grab", 1);
    grab.invoke_static("android.telephony.TelephonyManager",
                       "getSubscriberId");
    grab.move_result(1);
    grab.iput(1, 0, "v");
    grab.const_int(1, 0);  // the field, not the register, must carry it
    grab.iget(2, 0, "v");
    grab.ret(2);
    grab.done();
    auto m = b.cls("com.taint.app.T").static_method("t", 0);
    m.new_instance(0, "com.taint.app.Box");
    m.invoke_virtual("com.taint.app.Box", "grab", {0});
    m.move_result(1);
    m.invoke_static("android.util.Log", "d", {1, 1});
    m.done();
  });
  ASSERT_EQ(leaks.size(), 1u);
  EXPECT_EQ(leaks[0].mask, mask_of(DataType::Imsi));
  EXPECT_EQ(leaks[0].sink_api, "android.util.Log.d");
  EXPECT_EQ(leaks[0].call_site_class, "com.taint.app.T");
}

TEST_F(DynamicTaintTest, ConcreteUriResolvesProviderType) {
  const auto mask = dynamic_mask([](dex::DexBuilder& b) {
    auto m = b.cls("com.taint.app.T").static_method("t", 0);
    // The URI is assembled at runtime — static constant tracking can lose
    // this; dynamic sees the concrete value.
    m.const_str(0, "content://");
    m.const_str(1, "call_log");
    m.concat(2, 0, 1);
    m.invoke_static("android.content.ContentResolver", "query", {2});
    m.move_result(3);
    m.invoke_static("android.util.Log", "d", {3, 3});
    m.done();
  });
  EXPECT_EQ(mask, mask_of(DataType::CallLog));
}

TEST_F(DynamicTaintTest, ReflectionDoesNotBreakTracking) {
  // The classic static-analysis blind spot: the sink lives behind a
  // reflective dispatch with a tainted parameter.
  auto define = [](dex::DexBuilder& b) {
    auto ship = b.cls("com.taint.app.Out").static_method("ship", 1);
    ship.invoke_static("android.util.Log", "d", {0, 0});
    ship.done();
    auto m = b.cls("com.taint.app.T").static_method("t", 0);
    m.invoke_static("android.telephony.TelephonyManager", "getSubscriberId");
    m.move_result(0);
    m.const_str(1, "com.taint.app.Out");
    m.invoke_static("java.lang.Class", "forName", {1});
    m.move_result(2);
    m.const_str(3, "ship");
    m.invoke_virtual("java.lang.Class", "getMethod", {2, 3});
    m.move_result(4);
    // Method.invoke(method, null_receiver, tainted_arg)
    m.const_int(5, 0);
    m.invoke_virtual("java.lang.reflect.Method", "invoke", {4, 5, 0});
    m.done();
  };
  EXPECT_EQ(dynamic_mask(define), mask_of(DataType::Imsi));

  // And the static backend indeed misses it: the reflective edge is not in
  // its call graph, and Out.ship's parameter is never seeded.
  const auto static_report = privacy::analyze_privacy(dexfile_);
  EXPECT_EQ(static_report.leaked_mask(), 0u);
}

TEST_F(DynamicTaintTest, DeadBranchInvisibleToDynamicButSeenStatically) {
  auto define = [](dex::DexBuilder& b) {
    auto m = b.cls("com.taint.app.T").static_method("t", 0);
    m.const_int(0, 0);
    m.if_eqz(0, "skip");  // always taken: the leak below never executes
    m.invoke_static("android.telephony.TelephonyManager", "getDeviceId");
    m.move_result(1);
    m.invoke_static("android.util.Log", "d", {1, 1});
    m.label("skip");
    m.return_void();
    m.done();
  };
  EXPECT_EQ(dynamic_mask(define), 0u);  // never ran
  // Static analysis (path-insensitive) reports it.
  const auto static_report = privacy::analyze_privacy(dexfile_);
  EXPECT_EQ(static_report.leaked_mask(), mask_of(DataType::Imei));
}

TEST_F(DynamicTaintTest, TaintSurvivesStringBytesRoundTrip) {
  const auto mask = dynamic_mask([](dex::DexBuilder& b) {
    auto m = b.cls("com.taint.app.T").static_method("t", 0);
    m.invoke_static("android.telephony.TelephonyManager",
                    "getSimSerialNumber");
    m.move_result(0);
    m.invoke_static("java.lang.String", "getBytes", {0});
    m.move_result(1);
    m.invoke_static("libc", "exec", {1});
    m.done();
  });
  EXPECT_EQ(mask, mask_of(DataType::Iccid));
}

TEST_F(DynamicTaintTest, UntaintedSinkCallsNotReported) {
  const auto leaks = run([](dex::DexBuilder& b) {
    auto m = b.cls("com.taint.app.T").static_method("t", 0);
    m.const_str(0, "hello");
    m.invoke_static("android.util.Log", "d", {0, 0});
    m.done();
  });
  EXPECT_TRUE(leaks.empty());
}

TEST_F(DynamicTaintTest, MultipleSourcesAccumulate) {
  const auto leaks = run([](dex::DexBuilder& b) {
    auto m = b.cls("com.taint.app.T").static_method("t", 0);
    m.invoke_static("android.telephony.TelephonyManager", "getDeviceId");
    m.move_result(0);
    m.invoke_static("android.telephony.TelephonyManager", "getLine1Number");
    m.move_result(1);
    m.concat(2, 0, 1);
    m.invoke_static("android.telephony.SmsManager", "sendTextMessage",
                    {1, 2});
    m.done();
  });
  ASSERT_EQ(leaks.size(), 1u);
  EXPECT_EQ(leaks[0].mask,
            mask_of(DataType::Imei) | mask_of(DataType::PhoneNumber));
  EXPECT_EQ(leaks[0].sink_api,
            "android.telephony.SmsManager.sendTextMessage");
}

}  // namespace
}  // namespace dydroid::core
