// Unit tests for core building blocks: call-site extraction, entity
// classification, download tracker graph queries, static filter,
// vulnerability rules, interceptor bookkeeping.
#include <gtest/gtest.h>

#include "core/download_tracker.hpp"
#include "core/pipeline.hpp"
#include "core/dcl_log.hpp"
#include "core/static_filter.hpp"
#include "core/vulnerability.hpp"
#include "dex/builder.hpp"

namespace dydroid::core {
namespace {

using vm::FlowNode;
using vm::FlowNodeKind;
using vm::StackTrace;
using vm::StackTraceElement;

// ---------------------------------------------------------------------------
// Call-site extraction (Fig. 2).
// ---------------------------------------------------------------------------

TEST(CallSite, SkipsFrameworkFrames) {
  const StackTrace trace = {
      {"dalvik.system.DexClassLoader", "<init>"},
      {"com.adsdk.core.AdLoader", "boot"},
      {"com.example.app.Main", "onCreate"},
  };
  EXPECT_EQ(call_site_of(trace), "com.adsdk.core.AdLoader");
}

TEST(CallSite, NestedFrameworkWrappersSkipped) {
  const StackTrace trace = {
      {"dalvik.system.DexClassLoader", "<init>"},
      {"java.lang.ClassLoader", "loadClass"},
      {"android.app.LoadedApk", "makeApplication"},
      {"com.example.app.Boot", "init"},
  };
  EXPECT_EQ(call_site_of(trace), "com.example.app.Boot");
}

TEST(CallSite, AllFrameworkYieldsEmpty) {
  const StackTrace trace = {
      {"dalvik.system.PathClassLoader", "<init>"},
      {"android.app.ActivityThread", "main"},
  };
  EXPECT_EQ(call_site_of(trace), "");
}

TEST(Entity, OwnWhenInAppPackage) {
  EXPECT_EQ(classify_entity("com.example.app.Main", "com.example.app"),
            Entity::Own);
  EXPECT_EQ(classify_entity("com.example.app.sub.Helper", "com.example.app"),
            Entity::Own);
}

TEST(Entity, ThirdPartyOtherwise) {
  EXPECT_EQ(classify_entity("com.google.ads.Loader", "com.example.app"),
            Entity::ThirdParty);
  // Prefix similarity without a package boundary is NOT own.
  EXPECT_EQ(classify_entity("com.example.appx.Main", "com.example.app"),
            Entity::ThirdParty);
}

// ---------------------------------------------------------------------------
// Download tracker (Table I).
// ---------------------------------------------------------------------------

FlowNode url_node(std::uint64_t id, std::string spec) {
  return FlowNode{FlowNodeKind::Url, id, std::move(spec)};
}
FlowNode obj(FlowNodeKind kind, std::uint64_t id) {
  return FlowNode{kind, id, ""};
}
FlowNode file_node(std::string path) {
  return FlowNode{FlowNodeKind::File, 0, std::move(path)};
}

TEST(DownloadTracker, FullChainResolves) {
  DownloadTracker tracker;
  const auto url = url_node(1, "http://cdn/x.dex");
  tracker.add_url(url);
  tracker.add_flow(url, obj(FlowNodeKind::InputStream, 2));
  tracker.add_flow(obj(FlowNodeKind::InputStream, 2),
                   obj(FlowNodeKind::Buffer, 3));
  tracker.add_flow(obj(FlowNodeKind::Buffer, 3),
                   obj(FlowNodeKind::OutputStream, 4));
  tracker.add_flow(obj(FlowNodeKind::OutputStream, 4), file_node("/d/x.dex"));
  const auto origin = tracker.origin_url("/d/x.dex");
  ASSERT_TRUE(origin.has_value());
  EXPECT_EQ(*origin, "http://cdn/x.dex");
}

TEST(DownloadTracker, FileToFileCopyPropagates) {
  DownloadTracker tracker;
  const auto url = url_node(1, "http://cdn/y.bin");
  tracker.add_flow(url, obj(FlowNodeKind::InputStream, 2));
  tracker.add_flow(obj(FlowNodeKind::InputStream, 2),
                   obj(FlowNodeKind::Buffer, 3));
  tracker.add_flow(obj(FlowNodeKind::Buffer, 3),
                   obj(FlowNodeKind::OutputStream, 4));
  tracker.add_flow(obj(FlowNodeKind::OutputStream, 4), file_node("/d/tmp"));
  tracker.add_flow(file_node("/d/tmp"), file_node("/d/final.dex"));
  tracker.add_flow(file_node("/d/final.dex"), file_node("/d/third.dex"));
  EXPECT_TRUE(tracker.origin_url("/d/third.dex").has_value());
}

TEST(DownloadTracker, LocalFileHasNoOrigin) {
  DownloadTracker tracker;
  tracker.add_flow(file_node("/apk"), obj(FlowNodeKind::InputStream, 5));
  tracker.add_flow(obj(FlowNodeKind::InputStream, 5),
                   obj(FlowNodeKind::Buffer, 6));
  tracker.add_flow(obj(FlowNodeKind::Buffer, 6),
                   obj(FlowNodeKind::OutputStream, 7));
  tracker.add_flow(obj(FlowNodeKind::OutputStream, 7), file_node("/d/l.dex"));
  EXPECT_FALSE(tracker.origin_url("/d/l.dex").has_value());
}

TEST(DownloadTracker, UnknownFileIsNullopt) {
  DownloadTracker tracker;
  EXPECT_FALSE(tracker.origin_url("/never/seen").has_value());
}

TEST(DownloadTracker, TwoUrlsTwoFilesKeptApart) {
  DownloadTracker tracker;
  tracker.add_flow(url_node(1, "http://a/1"), obj(FlowNodeKind::InputStream, 2));
  tracker.add_flow(obj(FlowNodeKind::InputStream, 2),
                   obj(FlowNodeKind::Buffer, 3));
  tracker.add_flow(obj(FlowNodeKind::Buffer, 3),
                   obj(FlowNodeKind::OutputStream, 4));
  tracker.add_flow(obj(FlowNodeKind::OutputStream, 4), file_node("/f1"));
  tracker.add_flow(url_node(10, "http://b/2"),
                   obj(FlowNodeKind::InputStream, 11));
  tracker.add_flow(obj(FlowNodeKind::InputStream, 11),
                   obj(FlowNodeKind::Buffer, 12));
  tracker.add_flow(obj(FlowNodeKind::Buffer, 12),
                   obj(FlowNodeKind::OutputStream, 13));
  tracker.add_flow(obj(FlowNodeKind::OutputStream, 13), file_node("/f2"));
  EXPECT_EQ(*tracker.origin_url("/f1"), "http://a/1");
  EXPECT_EQ(*tracker.origin_url("/f2"), "http://b/2");
}

TEST(DownloadTracker, CycleSafe) {
  DownloadTracker tracker;
  tracker.add_flow(file_node("/a"), file_node("/b"));
  tracker.add_flow(file_node("/b"), file_node("/a"));
  EXPECT_FALSE(tracker.origin_url("/a").has_value());
}

TEST(DownloadTracker, StreamWrappingChainsResolve) {
  // URL -> InputStream -> BufferedInputStream (wrap) -> Buffer -> ... -> File
  DownloadTracker tracker;
  tracker.add_flow(url_node(1, "http://w/x"), obj(FlowNodeKind::InputStream, 2));
  tracker.add_flow(obj(FlowNodeKind::InputStream, 2),
                   obj(FlowNodeKind::InputStream, 3));  // wrapper
  tracker.add_flow(obj(FlowNodeKind::InputStream, 3),
                   obj(FlowNodeKind::Buffer, 4));
  tracker.add_flow(obj(FlowNodeKind::Buffer, 4),
                   obj(FlowNodeKind::OutputStream, 5));
  tracker.add_flow(obj(FlowNodeKind::OutputStream, 5), file_node("/w.dex"));
  EXPECT_TRUE(tracker.origin_url("/w.dex").has_value());
}

// ---------------------------------------------------------------------------
// Static filter.
// ---------------------------------------------------------------------------

TEST(StaticFilter, DetectsDexLoaderInstantiation) {
  dex::DexBuilder b;
  auto m = b.cls("a.B").static_method("f", 0);
  m.new_instance(0, "dalvik.system.DexClassLoader");
  m.done();
  const auto result = scan_dcl_apis(b.build());
  EXPECT_TRUE(result.dex_dcl);
  EXPECT_FALSE(result.native_dcl);
}

TEST(StaticFilter, DetectsPathLoaderToo) {
  dex::DexBuilder b;
  auto m = b.cls("a.B").static_method("f", 0);
  m.new_instance(0, "dalvik.system.PathClassLoader");
  m.done();
  EXPECT_TRUE(scan_dcl_apis(b.build()).dex_dcl);
}

TEST(StaticFilter, DetectsEveryNativeLoadApi) {
  for (const auto* api : {"load", "loadLibrary", "load0"}) {
    for (const auto* cls : {"java.lang.System", "java.lang.Runtime"}) {
      dex::DexBuilder b;
      auto m = b.cls("a.B").static_method("f", 0);
      m.const_str(0, "x");
      m.invoke_static(cls, api, {0});
      m.done();
      EXPECT_TRUE(scan_dcl_apis(b.build()).native_dcl)
          << cls << "." << api;
    }
  }
}

TEST(StaticFilter, NativeMethodCountsAsNative) {
  dex::DexBuilder b;
  b.cls("a.B").native_method("jniInit", 0);
  EXPECT_TRUE(scan_dcl_apis(b.build()).native_dcl);
}

TEST(StaticFilter, CleanAppHasNeither) {
  dex::DexBuilder b;
  b.cls("a.B").static_method("f", 0).const_int(0, 1).ret(0).done();
  const auto result = scan_dcl_apis(b.build());
  EXPECT_FALSE(result.any());
}

TEST(StaticFilter, DeadCodeStillDetected) {
  // Presence, not reachability (paper: "We do not verify the reachability").
  dex::DexBuilder b;
  auto m = b.cls("a.B").static_method("unreachable", 0);
  m.return_void();
  m.new_instance(0, "dalvik.system.DexClassLoader");  // after return
  m.done();
  EXPECT_TRUE(scan_dcl_apis(b.build()).dex_dcl);
}

// ---------------------------------------------------------------------------
// Vulnerability rules.
// ---------------------------------------------------------------------------

DclEvent event_loading(CodeKind kind, std::string path,
                       bool integrity = false) {
  DclEvent e;
  e.kind = kind;
  e.paths.push_back(std::move(path));
  e.integrity_check_before = integrity;
  return e;
}

TEST(Vulnerability, ExternalStorageRequiresOldMinSdk) {
  const std::vector<DclEvent> events = {
      event_loading(CodeKind::Dex, "/mnt/sdcard/cache/x.jar")};
  EXPECT_EQ(analyze_vulnerabilities(events, "com.a", 16).size(), 1u);
  EXPECT_TRUE(analyze_vulnerabilities(events, "com.a", 19).empty());
}

TEST(Vulnerability, OtherAppInternalFlaggedAnySdk) {
  const std::vector<DclEvent> events = {
      event_loading(CodeKind::Native, "/data/data/com.other/lib/l.so")};
  const auto findings = analyze_vulnerabilities(events, "com.a", 23);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].category, VulnCategory::OtherAppInternalStorage);
}

TEST(Vulnerability, OwnInternalStorageIsSafe) {
  const std::vector<DclEvent> events = {
      event_loading(CodeKind::Dex, "/data/data/com.a/files/p.dex")};
  EXPECT_TRUE(analyze_vulnerabilities(events, "com.a", 16).empty());
}

TEST(Vulnerability, SystemLibIsSafe) {
  const std::vector<DclEvent> events = {
      event_loading(CodeKind::Native, "/system/lib/libc.so")};
  EXPECT_TRUE(analyze_vulnerabilities(events, "com.a", 16).empty());
}

TEST(Vulnerability, IntegrityCheckExcludes) {
  const std::vector<DclEvent> events = {
      event_loading(CodeKind::Dex, "/mnt/sdcard/x.jar", /*integrity=*/true)};
  EXPECT_TRUE(analyze_vulnerabilities(events, "com.a", 16).empty());
}

TEST(Vulnerability, MultiplePathsMultipleFindings) {
  DclEvent e;
  e.kind = CodeKind::Dex;
  e.paths = {"/mnt/sdcard/a.jar", "/data/data/com.b/x.dex",
             "/data/data/com.a/ok.dex"};
  const auto findings = analyze_vulnerabilities({e}, "com.a", 16);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(Names, EnumFormatters) {
  EXPECT_EQ(code_kind_name(CodeKind::Dex), "DEX");
  EXPECT_EQ(code_kind_name(CodeKind::Native), "Native");
  EXPECT_EQ(entity_name(Entity::Own), "Own");
  EXPECT_EQ(entity_name(Entity::ThirdParty), "3rd-party");
  EXPECT_EQ(vuln_category_name(VulnCategory::ExternalStorage),
            "External storage (< Android 4.4)");
  EXPECT_EQ(dynamic_status_name(DynamicStatus::kExercised), "exercised");
}

}  // namespace
}  // namespace dydroid::core
