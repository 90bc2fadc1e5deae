// MiniFlowDroid tests: source/sink catalogs and the inter-procedural taint
// analysis over intercepted DEX (arbitrary entry points, field and return
// propagation, URI-resolved content-provider sources).
#include <gtest/gtest.h>

#include <algorithm>

#include "dex/builder.hpp"
#include "privacy/flowdroid.hpp"

namespace dydroid::privacy {
namespace {

bool leaks_type(const PrivacyReport& report, DataType type) {
  return (report.leaked_mask() & mask_of(type)) != 0;
}

TEST(Catalog, SourceApis) {
  EXPECT_EQ(source_api("android.telephony.TelephonyManager", "getDeviceId"),
            DataType::Imei);
  EXPECT_EQ(source_api("android.location.LocationManager",
                       "getLastKnownLocation"),
            DataType::Location);
  EXPECT_EQ(source_api("android.util.Log", "d"), std::nullopt);
}

TEST(Catalog, SourceUris) {
  EXPECT_EQ(source_uri("content://contacts"), DataType::Contact);
  EXPECT_EQ(source_uri("content://settings"), DataType::Settings);
  EXPECT_EQ(source_uri("content://unknown"), std::nullopt);
}

TEST(Catalog, Sinks) {
  EXPECT_TRUE(is_sink_api("android.util.Log", "d"));
  EXPECT_TRUE(is_sink_api("java.io.OutputStream", "write"));
  EXPECT_TRUE(is_sink_api("android.telephony.SmsManager", "sendTextMessage"));
  EXPECT_FALSE(is_sink_api("java.lang.System", "currentTimeMillis"));
}

TEST(Catalog, CategoriesCoverAllTypes) {
  int counts[5] = {};
  for (int i = 0; i < kNumDataTypes; ++i) {
    counts[static_cast<int>(category_of(static_cast<DataType>(i)))]++;
  }
  EXPECT_EQ(counts[static_cast<int>(Category::L)], 1);
  EXPECT_EQ(counts[static_cast<int>(Category::PI)], 3);
  EXPECT_EQ(counts[static_cast<int>(Category::UI)], 2);
  EXPECT_EQ(counts[static_cast<int>(Category::UP)], 2);
  EXPECT_EQ(counts[static_cast<int>(Category::CP)], 10);
}

TEST(Catalog, MaskHelpers) {
  const auto mask = mask_of(DataType::Imei) | mask_of(DataType::Sms);
  const auto types = types_in(mask);
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0], DataType::Imei);
  EXPECT_EQ(types[1], DataType::Sms);
}

// ---------------------------------------------------------------------------
// Direct flows.
// ---------------------------------------------------------------------------

TEST(FlowDroid, DirectSourceToSink) {
  dex::DexBuilder b;
  auto m = b.cls("sdk.Tracker").method("run", 1);
  m.invoke_static("android.telephony.TelephonyManager", "getDeviceId");
  m.move_result(1);
  m.const_str(2, "tag");
  m.invoke_static("android.util.Log", "d", {2, 1});
  m.done();
  const auto report = analyze_privacy(b.build());
  ASSERT_EQ(report.leaks.size(), 1u);
  EXPECT_EQ(report.leaks[0].type, DataType::Imei);
  EXPECT_EQ(report.leaks[0].sink_class, "sdk.Tracker");
  EXPECT_EQ(report.leaks[0].sink_api, "android.util.Log.d");
}

TEST(FlowDroid, NoLeakWithoutSinkReach) {
  dex::DexBuilder b;
  auto m = b.cls("sdk.Tracker").method("run", 1);
  m.invoke_static("android.telephony.TelephonyManager", "getDeviceId");
  m.move_result(1);
  m.const_str(2, "const only");
  m.invoke_static("android.util.Log", "d", {2, 2});  // logs a constant
  m.done();
  EXPECT_TRUE(analyze_privacy(b.build()).leaks.empty());
}

TEST(FlowDroid, TaintThroughArithAndConcat) {
  dex::DexBuilder b;
  auto m = b.cls("sdk.Tracker").method("run", 1);
  m.invoke_static("android.location.LocationManager", "getLastKnownLocation");
  m.move_result(1);
  m.const_str(2, "loc=");
  m.concat(3, 2, 1);
  m.invoke_static("android.util.Log", "d", {2, 3});
  m.done();
  const auto report = analyze_privacy(b.build());
  EXPECT_TRUE(leaks_type(report, DataType::Location));
}

TEST(FlowDroid, OverwriteKillsTaint) {
  dex::DexBuilder b;
  auto m = b.cls("sdk.Tracker").method("run", 1);
  m.invoke_static("android.telephony.TelephonyManager", "getDeviceId");
  m.move_result(1);
  m.const_str(1, "clean");  // strong update on the register
  m.invoke_static("android.util.Log", "d", {1, 1});
  m.done();
  EXPECT_TRUE(analyze_privacy(b.build()).leaks.empty());
}

TEST(FlowDroid, UriResolvedContentProviderSource) {
  dex::DexBuilder b;
  auto m = b.cls("sdk.Tracker").method("run", 1);
  m.const_str(1, "content://call_log");
  m.invoke_static("android.content.ContentResolver", "query", {1});
  m.move_result(2);
  m.invoke_static("android.util.Log", "d", {1, 2});
  m.done();
  const auto report = analyze_privacy(b.build());
  ASSERT_EQ(report.leaks.size(), 1u);
  EXPECT_EQ(report.leaks[0].type, DataType::CallLog);
}

TEST(FlowDroid, UnknownUriQueryIsNotASource) {
  dex::DexBuilder b;
  auto m = b.cls("sdk.Tracker").method("run", 1);
  m.const_str(1, "content://com.custom.provider");
  m.invoke_static("android.content.ContentResolver", "query", {1});
  m.move_result(2);
  m.invoke_static("android.util.Log", "d", {1, 2});
  m.done();
  EXPECT_TRUE(analyze_privacy(b.build()).leaks.empty());
}

// ---------------------------------------------------------------------------
// Inter-procedural / field flows.
// ---------------------------------------------------------------------------

TEST(FlowDroid, ReturnValuePropagation) {
  dex::DexBuilder b;
  b.cls("sdk.Source").static_method("grab", 0)
      .invoke_static("android.telephony.TelephonyManager", "getSubscriberId")
      .move_result(0)
      .ret(0)
      .done();
  auto m = b.cls("sdk.Sink").method("run", 1);
  m.invoke_static("sdk.Source", "grab");
  m.move_result(1);
  m.invoke_static("android.util.Log", "d", {1, 1});
  m.done();
  const auto report = analyze_privacy(b.build());
  EXPECT_TRUE(leaks_type(report, DataType::Imsi));
  // The leak is attributed to the class CONTAINING the sink call.
  ASSERT_FALSE(report.leaks.empty());
  EXPECT_EQ(report.leaks[0].sink_class, "sdk.Sink");
}

TEST(FlowDroid, ParameterPropagation) {
  dex::DexBuilder b;
  b.cls("sdk.Out").static_method("ship", 1)
      .invoke_static("android.util.Log", "d", {0, 0})
      .done();
  auto m = b.cls("sdk.Main").method("run", 1);
  m.invoke_static("android.accounts.AccountManager", "getAccounts");
  m.move_result(1);
  m.invoke_static("sdk.Out", "ship", {1});
  m.done();
  const auto report = analyze_privacy(b.build());
  EXPECT_TRUE(leaks_type(report, DataType::Account));
  ASSERT_FALSE(report.leaks.empty());
  EXPECT_EQ(report.leaks[0].sink_class, "sdk.Out");
}

TEST(FlowDroid, FieldPropagationAcrossMethods) {
  dex::DexBuilder b;
  auto cls = b.cls("sdk.Store");
  cls.static_field("stash");
  auto put = cls.static_method("collect", 0);
  put.invoke_static("android.telephony.TelephonyManager", "getLine1Number");
  put.move_result(0);
  put.sput(0, "sdk.Store", "stash");
  put.done();
  auto get = cls.static_method("exfil", 0);
  get.sget(0, "sdk.Store", "stash");
  get.invoke_static("android.telephony.SmsManager", "sendTextMessage", {0, 0});
  get.done();
  const auto report = analyze_privacy(b.build());
  EXPECT_TRUE(leaks_type(report, DataType::PhoneNumber));
  ASSERT_FALSE(report.leaks.empty());
  EXPECT_EQ(report.leaks[0].sink_api,
            "android.telephony.SmsManager.sendTextMessage");
}

TEST(FlowDroid, InstanceFieldFlow) {
  dex::DexBuilder b;
  auto cls = b.cls("sdk.Holder");
  cls.instance_field("data");
  auto m = cls.method("run", 1);
  m.invoke_static("android.content.pm.PackageManager",
                  "getInstalledPackages");
  m.move_result(1);
  m.iput(1, 0, "data");
  m.iget(2, 0, "data");
  m.invoke_static("android.util.Log", "d", {2, 2});
  m.done();
  const auto report = analyze_privacy(b.build());
  EXPECT_TRUE(leaks_type(report, DataType::InstalledPackages));
}

TEST(FlowDroid, LoopCarriedTaint) {
  // Taint enters the sink only through a back edge.
  dex::DexBuilder b;
  auto m = b.cls("sdk.Loop").method("run", 1);
  m.const_str(1, "seed");
  m.const_int(2, 3);
  m.label("top");
  m.if_eqz(2, "end");
  m.invoke_static("android.util.Log", "d", {1, 1});  // leaks on pass >= 2
  m.invoke_static("android.telephony.TelephonyManager", "getDeviceId");
  m.move_result(1);
  m.const_int(3, 1);
  m.sub(2, 2, 3);
  m.jump("top");
  m.label("end");
  m.return_void();
  m.done();
  const auto report = analyze_privacy(b.build());
  EXPECT_TRUE(leaks_type(report, DataType::Imei));
}

TEST(FlowDroid, MultipleTypesAccumulate) {
  dex::DexBuilder b;
  auto m = b.cls("sdk.Multi").method("run", 1);
  m.invoke_static("android.telephony.TelephonyManager", "getDeviceId");
  m.move_result(1);
  m.invoke_static("android.location.LocationManager", "getLastKnownLocation");
  m.move_result(2);
  m.concat(3, 1, 2);
  m.invoke_static("android.util.Log", "d", {3, 3});
  m.done();
  const auto report = analyze_privacy(b.build());
  EXPECT_TRUE(leaks_type(report, DataType::Imei));
  EXPECT_TRUE(leaks_type(report, DataType::Location));
  const auto imei_leaks =
      std::count_if(report.leaks.begin(), report.leaks.end(),
                    [](const Leak& l) { return l.type == DataType::Imei; });
  EXPECT_EQ(imei_leaks, 1);
}

TEST(FlowDroid, PassThroughFrameworkCallsPropagate) {
  // String.getBytes is not a source/sink; taint must pass through it.
  dex::DexBuilder b;
  auto m = b.cls("sdk.Enc").method("run", 1);
  m.invoke_static("android.telephony.TelephonyManager", "getSimSerialNumber");
  m.move_result(1);
  m.invoke_static("java.lang.String", "getBytes", {1});
  m.move_result(2);
  m.invoke_static("android.util.Log", "d", {2, 2});
  m.done();
  EXPECT_TRUE(leaks_type(analyze_privacy(b.build()), DataType::Iccid));
}

TEST(FlowDroid, EmptyDexNoLeaks) {
  dex::DexFile empty;
  EXPECT_TRUE(analyze_privacy(empty).leaks.empty());
}

TEST(FlowDroid, DuplicateLeaksDeduplicated) {
  // Same (class, method, sink, type) reported once even under fixpoint
  // iteration.
  dex::DexBuilder b;
  auto m = b.cls("sdk.Dup").method("run", 1);
  m.invoke_static("android.telephony.TelephonyManager", "getDeviceId");
  m.move_result(1);
  m.invoke_static("android.util.Log", "d", {1, 1});
  m.done();
  const auto report = analyze_privacy(b.build());
  EXPECT_EQ(report.leaks.size(), 1u);
}

}  // namespace
}  // namespace dydroid::privacy
