// MiniDalvik VM tests: interpretation, class loading & DCL hooks, file and
// stream instrumentation, native loading, reflection, budgets.
#include <gtest/gtest.h>

#include <array>
#include <limits>

#include "core/interceptor.hpp"
#include "dex/builder.hpp"
#include "nativebin/native_library.hpp"
#include "os/device.hpp"
#include "vm/frameworks.hpp"
#include "vm/vm.hpp"

namespace dydroid::vm {
namespace {

using support::to_bytes;

constexpr const char* kPkg = "com.example.app";

apk::ApkFile wrap_apk(dex::DexFile dex, manifest::Manifest m) {
  apk::ApkFile apk;
  apk.write_manifest(m);
  apk.write_classes_dex(dex);
  apk.sign("test-key");
  return apk;
}

manifest::Manifest base_manifest() {
  manifest::Manifest m;
  m.package = kPkg;
  m.add_permission(manifest::kInternet);
  m.components.push_back(manifest::Component{
      manifest::ComponentKind::Activity, std::string(kPkg) + ".Main", true});
  return m;
}

/// Fixture wiring a device + VM around a caller-supplied classes.dex.
class VmTest : public ::testing::Test {
 protected:
  void boot(dex::DexFile dex, manifest::Manifest m) {
    apk_ = wrap_apk(std::move(dex), m);
    ASSERT_TRUE(device_.install(apk_).ok());
    manifest_ = std::move(m);
    vm_ = std::make_unique<Vm>(device_, manifest_);
    vm_->load_app(
        std::make_shared<const dex::DexFile>(*apk_.read_classes_dex()));
  }
  void boot(dex::DexFile dex) { boot(std::move(dex), base_manifest()); }
  /// A fresh Vm over the app boot() installed, as a second process would
  /// host it.
  void restart() {
    vm_ = std::make_unique<Vm>(device_, manifest_);
    vm_->load_app(
        std::make_shared<const dex::DexFile>(*apk_.read_classes_dex()));
  }

  /// Runs Runtime.getRuntime().<method>(operand) from an app class and
  /// checks the native-load hook and the interceptor's event.
  void expect_runtime_load_hooked(std::string_view method,
                                  std::string_view operand);

  os::Device device_;
  apk::ApkFile apk_;
  manifest::Manifest manifest_;  // the Vm borrows it
  std::unique_ptr<Vm> vm_;
};

// ---------------------------------------------------------------------------
// Interpreter basics.
// ---------------------------------------------------------------------------

TEST_F(VmTest, ArithmeticAndReturn) {
  dex::DexBuilder b;
  b.cls("com.example.app.Calc")
      .static_method("compute", 0)
      .const_int(0, 6)
      .const_int(1, 7)
      .mul(2, 0, 1)
      .ret(2)
      .done();
  boot(b.build());
  EXPECT_EQ(vm_->call_static("com.example.app.Calc", "compute").as_int(), 42);
}

TEST_F(VmTest, LoopWithBranches) {
  // sum 1..n via loop
  dex::DexBuilder b;
  auto m = b.cls("com.example.app.Calc").static_method("sum", 1);
  m.const_int(1, 0);   // acc
  m.const_int(2, 1);   // one
  m.label("top");
  m.if_eqz(0, "end");
  m.add(1, 1, 0);
  m.sub(0, 0, 2);
  m.jump("top");
  m.label("end");
  m.ret(1);
  m.done();
  boot(b.build());
  EXPECT_EQ(vm_->call_static("com.example.app.Calc", "sum",
                             std::array{Value(10)})
                .as_int(),
            55);
}

TEST_F(VmTest, StringConcatAndCompare) {
  dex::DexBuilder b;
  b.cls("com.example.app.S")
      .static_method("f", 0)
      .const_str(0, "foo")
      .const_str(1, "bar")
      .concat(2, 0, 1)
      .const_str(3, "foobar")
      .cmp_eq(4, 2, 3)
      .ret(4)
      .done();
  boot(b.build());
  EXPECT_EQ(vm_->call_static("com.example.app.S", "f").as_int(), 1);
}

TEST_F(VmTest, InstanceFieldsAndConstructor) {
  dex::DexBuilder b;
  auto cls = b.cls("com.example.app.Counter");
  cls.instance_field("count");
  cls.method("<init>", 1).const_int(1, 10).iput(1, 0, "count").done();
  cls.method("bump", 1)
      .iget(1, 0, "count")
      .const_int(2, 1)
      .add(1, 1, 2)
      .iput(1, 0, "count")
      .ret(1)
      .done();
  boot(b.build());
  auto obj = vm_->instantiate("com.example.app.Counter");
  EXPECT_EQ(vm_->call_method(obj, "bump").as_int(), 11);
  EXPECT_EQ(vm_->call_method(obj, "bump").as_int(), 12);
}

TEST_F(VmTest, StaticFields) {
  dex::DexBuilder b;
  auto cls = b.cls("com.example.app.G");
  cls.static_field("flag");
  cls.static_method("set", 0)
      .const_int(0, 99)
      .sput(0, "com.example.app.G", "flag")
      .done();
  cls.static_method("get", 0)
      .sget(0, "com.example.app.G", "flag")
      .ret(0)
      .done();
  boot(b.build());
  EXPECT_EQ(vm_->call_static("com.example.app.G", "get").as_int(), 0);
  (void)vm_->call_static("com.example.app.G", "set");
  EXPECT_EQ(vm_->call_static("com.example.app.G", "get").as_int(), 99);
}

TEST_F(VmTest, InheritanceDispatchAcrossClasses) {
  dex::DexBuilder b;
  b.cls("com.example.app.Base").method("speak", 1).const_int(1, 1).ret(1).done();
  b.cls("com.example.app.Derived", "com.example.app.Base");
  boot(b.build());
  auto obj = vm_->instantiate("com.example.app.Derived");
  EXPECT_EQ(vm_->call_method(obj, "speak").as_int(), 1);
}

TEST_F(VmTest, FrameworkSuperMethodFallsThrough) {
  // Activity subclass calling the framework's setContentView no-op.
  dex::DexBuilder b;
  b.cls("com.example.app.Main", "android.app.Activity")
      .method("onCreate", 1)
      .const_int(1, 5)
      .invoke_virtual("com.example.app.Main", "setContentView", {0, 1})
      .const_int(2, 123)
      .ret(2)
      .done();
  boot(b.build());
  auto obj = vm_->instantiate("com.example.app.Main");
  EXPECT_EQ(vm_->call_method(obj, "onCreate").as_int(), 123);
}

// ---------------------------------------------------------------------------
// Exceptions & budgets.
// ---------------------------------------------------------------------------

TEST_F(VmTest, DivisionByZeroThrows) {
  dex::DexBuilder b;
  b.cls("com.example.app.E")
      .static_method("f", 0)
      .const_int(0, 1)
      .const_int(1, 0)
      .div(2, 0, 1)
      .done();
  boot(b.build());
  EXPECT_THROW((void)vm_->call_static("com.example.app.E", "f"), VmException);
}

TEST_F(VmTest, ThrowOpCarriesMessageAndTrace) {
  dex::DexBuilder b;
  b.cls("com.example.app.E")
      .static_method("f", 0)
      .const_str(0, "boom")
      .throw_str(0)
      .done();
  boot(b.build());
  try {
    (void)vm_->call_static("com.example.app.E", "f");
    FAIL() << "expected VmException";
  } catch (const VmException& e) {
    EXPECT_STREQ(e.what(), "boom");
    ASSERT_FALSE(e.trace().empty());
    EXPECT_EQ(e.trace()[0].class_name, "com.example.app.E");
    EXPECT_EQ(e.trace()[0].method_name, "f");
  }
}

TEST_F(VmTest, InfiniteLoopHitsAnrBudget) {
  dex::DexBuilder b;
  auto m = b.cls("com.example.app.E").static_method("spin", 0);
  m.label("top");
  m.jump("top");
  m.done();
  boot(b.build());
  try {
    (void)vm_->call_static("com.example.app.E", "spin");
    FAIL() << "expected ANR";
  } catch (const VmException& e) {
    EXPECT_NE(std::string(e.what()).find("ANR"), std::string::npos);
  }
}

TEST_F(VmTest, UnboundedRecursionHitsDepthLimit) {
  dex::DexBuilder b;
  b.cls("com.example.app.E")
      .static_method("rec", 0)
      .invoke_static("com.example.app.E", "rec")
      .done();
  boot(b.build());
  try {
    (void)vm_->call_static("com.example.app.E", "rec");
    FAIL() << "expected StackOverflowError";
  } catch (const VmException& e) {
    EXPECT_NE(std::string(e.what()).find("StackOverflow"), std::string::npos);
  }
}

TEST_F(VmTest, MissingClassThrowsClassNotFound) {
  dex::DexBuilder b;
  b.cls("com.example.app.E")
      .static_method("f", 0)
      .new_instance(0, "com.missing.Clazz")
      .done();
  boot(b.build());
  try {
    (void)vm_->call_static("com.example.app.E", "f");
    FAIL();
  } catch (const VmException& e) {
    EXPECT_STREQ(e.what(), "ClassNotFoundException: com.missing.Clazz");
    ASSERT_FALSE(e.trace().empty());
    EXPECT_EQ(e.trace()[0].class_name, "com.example.app.E");
    EXPECT_EQ(e.trace()[0].method_name, "f");
  }
}

TEST_F(VmTest, LongArithmeticWrapsLikeJava) {
  // Java longs are two's complement: MIN / -1 is MIN and MIN % -1 is 0
  // (not a SIGFPE), and +, - and * wrap around.
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  dex::DexBuilder b;
  auto cls = b.cls("com.example.app.W");
  cls.static_method("div", 2).div(2, 0, 1).ret(2).done();
  cls.static_method("rem", 2).rem(2, 0, 1).ret(2).done();
  cls.static_method("add", 2).add(2, 0, 1).ret(2).done();
  cls.static_method("sub", 2).sub(2, 0, 1).ret(2).done();
  cls.static_method("mul", 2).mul(2, 0, 1).ret(2).done();
  boot(b.build());
  const auto run = [&](const char* op, std::int64_t x, std::int64_t y) {
    return vm_->call_static("com.example.app.W", op,
                            std::array{Value(x), Value(y)})
        .as_int();
  };
  EXPECT_EQ(run("div", kMin, -1), kMin);
  EXPECT_EQ(run("rem", kMin, -1), 0);
  EXPECT_EQ(run("add", kMax, 1), kMin);
  EXPECT_EQ(run("sub", kMin, 1), kMax);
  EXPECT_EQ(run("mul", kMax, 2), -2);
  // Division still truncates toward zero, as in Java.
  EXPECT_EQ(run("div", -7, 2), -3);
  EXPECT_EQ(run("rem", -7, 2), -1);
  EXPECT_EQ(run("rem", 7, -1), 0);
}

// ---------------------------------------------------------------------------
// Dynamic code loading (the paper's core mechanism).
// ---------------------------------------------------------------------------

/// A payload dex with one class exposing run() -> 7.
support::Bytes payload_dex_bytes() {
  dex::DexBuilder b;
  b.cls("com.payload.Impl")
      .method("run", 1)
      .const_int(1, 7)
      .ret(1)
      .done();
  return b.build().serialize();
}

/// App whose trigger() DexClassLoader-loads a payload from `path` and runs
/// Impl.run() via loadClass/newInstance/getMethod/invoke.
dex::DexFile loader_app(const std::string& path,
                        const std::string& opt_dir = "") {
  dex::DexBuilder b;
  auto m = b.cls("com.example.app.Main", "android.app.Activity")
               .method("trigger", 1);
  m.const_str(1, path);
  m.const_str(2, opt_dir);
  m.new_instance(3, "dalvik.system.DexClassLoader");
  m.invoke_virtual("dalvik.system.DexClassLoader", "<init>", {3, 1, 2});
  m.const_str(4, "com.payload.Impl");
  m.invoke_virtual("dalvik.system.DexClassLoader", "loadClass", {3, 4});
  m.move_result(5);
  m.invoke_virtual("java.lang.Class", "newInstance", {5});
  m.move_result(6);
  m.invoke_virtual("com.payload.Impl", "run", {6});
  m.move_result(7);
  m.ret(7);
  m.done();
  return b.build();
}

TEST_F(VmTest, DexClassLoaderLoadsAndRuns) {
  boot(loader_app("/data/data/com.example.app/files/p.dex",
                  "/data/data/com.example.app/cache"));
  ASSERT_TRUE(device_.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.example.app/files/p.dex",
                              payload_dex_bytes())
                  .ok());

  LoaderKind seen_kind{};
  std::string seen_path;
  std::string seen_opt;
  StackTrace seen_trace;
  vm_->instrumentation().on_dex_load =
      [&](LoaderKind kind, const std::string& dex_path,
          const std::string& opt, const StackTrace& trace) {
        seen_kind = kind;
        seen_path = dex_path;
        seen_opt = opt;
        seen_trace = trace;
      };

  auto main = vm_->instantiate("com.example.app.Main");
  EXPECT_EQ(vm_->call_method(main, "trigger").as_int(), 7);

  EXPECT_EQ(seen_kind, LoaderKind::DexClassLoader);
  EXPECT_EQ(seen_path, "/data/data/com.example.app/files/p.dex");
  EXPECT_EQ(seen_opt, "/data/data/com.example.app/cache");
  // Fig. 2: innermost frame is the loader ctor; the first non-framework
  // frame below it is the call site class.
  ASSERT_GE(seen_trace.size(), 2u);
  EXPECT_EQ(seen_trace[0].class_name, "dalvik.system.DexClassLoader");
  EXPECT_EQ(seen_trace[1].class_name, "com.example.app.Main");
  EXPECT_EQ(seen_trace[1].method_name, "trigger");
  // The odex by-product landed in the optimized dir.
  EXPECT_TRUE(device_.vfs().exists("/data/data/com.example.app/cache/p.odex"));
}

TEST_F(VmTest, DexClassLoaderLoadsFromApkContainer) {
  boot(loader_app("/data/data/com.example.app/files/p.apk"));
  apk::ApkFile payload;
  manifest::Manifest pm;
  pm.package = "com.payload";
  payload.write_manifest(pm);
  payload.put(apk::kClassesDexEntry, payload_dex_bytes());
  ASSERT_TRUE(device_.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.example.app/files/p.apk",
                              payload.serialize())
                  .ok());
  auto main = vm_->instantiate("com.example.app.Main");
  EXPECT_EQ(vm_->call_method(main, "trigger").as_int(), 7);
}

TEST_F(VmTest, LoadingMissingFileThrows) {
  boot(loader_app("/data/data/com.example.app/files/absent.dex"));
  auto main = vm_->instantiate("com.example.app.Main");
  EXPECT_THROW((void)vm_->call_method(main, "trigger"), VmException);
}

TEST_F(VmTest, LoadingGarbageFileThrows) {
  boot(loader_app("/data/data/com.example.app/files/junk.dex"));
  ASSERT_TRUE(device_.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.example.app/files/junk.dex",
                              to_bytes("not a dex at all"))
                  .ok());
  auto main = vm_->instantiate("com.example.app.Main");
  EXPECT_THROW((void)vm_->call_method(main, "trigger"), VmException);
}

TEST_F(VmTest, PathClassLoaderHookFires) {
  dex::DexBuilder b;
  auto m = b.cls("com.example.app.Main", "android.app.Activity")
               .method("trigger", 1);
  m.const_str(1, "/data/data/com.example.app/files/p.dex");
  m.new_instance(2, "dalvik.system.PathClassLoader");
  m.invoke_virtual("dalvik.system.PathClassLoader", "<init>", {2, 1});
  m.return_void();
  m.done();
  boot(b.build());
  ASSERT_TRUE(device_.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.example.app/files/p.dex",
                              payload_dex_bytes())
                  .ok());
  bool fired = false;
  vm_->instrumentation().on_dex_load =
      [&](LoaderKind kind, const std::string&, const std::string& opt,
          const StackTrace&) {
        fired = true;
        EXPECT_EQ(kind, LoaderKind::PathClassLoader);
        EXPECT_TRUE(opt.empty());
      };
  auto main = vm_->instantiate("com.example.app.Main");
  (void)vm_->call_method(main, "trigger");
  EXPECT_TRUE(fired);
}

TEST_F(VmTest, InheritedLoaderCtorFrameNamesTheFrameworkSuper) {
  // An app subclass of DexClassLoader that defines no <init>: the super walk
  // dispatches to the framework ctor, and the hook's innermost frame is
  // named by the subclass's ClassDef::super_name.
  dex::DexBuilder b;
  b.cls("com.example.app.MyLoader", "dalvik.system.DexClassLoader");
  auto m = b.cls("com.example.app.Main", "android.app.Activity")
               .method("trigger", 1);
  m.const_str(1, "/data/data/com.example.app/files/p.dex");
  m.const_str(2, "/data/data/com.example.app/cache");
  m.new_instance(3, "com.example.app.MyLoader");
  m.invoke_virtual("com.example.app.MyLoader", "<init>", {3, 1, 2});
  m.return_void();
  m.done();
  boot(b.build());
  ASSERT_TRUE(device_.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.example.app/files/p.dex",
                              payload_dex_bytes())
                  .ok());
  StackTrace trace;
  vm_->instrumentation().on_dex_load = [&](LoaderKind, const std::string&,
                                           const std::string&,
                                           const StackTrace& t) { trace = t; };
  auto main = vm_->instantiate("com.example.app.Main");
  (void)vm_->call_method(main, "trigger");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].class_name, "dalvik.system.DexClassLoader");
  EXPECT_EQ(trace[0].method_name, "<init>");
  EXPECT_EQ(trace[1].class_name, "com.example.app.Main");
  EXPECT_EQ(trace[1].method_name, "trigger");
}

TEST_F(VmTest, ThirdPartySdkIsCallSiteNotApp) {
  // The SDK class (different package) creates the loader from inside the
  // app's onCreate — the call site must be the SDK class (paper Fig. 2).
  dex::DexBuilder b;
  b.cls("com.example.app.Main", "android.app.Activity")
      .method("onCreate", 1)
      .invoke_static("com.adsdk.core.AdLoader", "boot")
      .done();
  auto sdk = b.cls("com.adsdk.core.AdLoader").static_method("boot", 0);
  sdk.const_str(0, "/data/data/com.example.app/cache/ad1.dex");
  sdk.const_str(1, "/data/data/com.example.app/cache");
  sdk.new_instance(2, "dalvik.system.DexClassLoader");
  sdk.invoke_virtual("dalvik.system.DexClassLoader", "<init>", {2, 0, 1});
  sdk.done();
  boot(b.build());
  ASSERT_TRUE(device_.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.example.app/cache/ad1.dex",
                              payload_dex_bytes())
                  .ok());
  StackTrace trace;
  vm_->instrumentation().on_dex_load = [&](LoaderKind, const std::string&,
                                           const std::string&,
                                           const StackTrace& t) { trace = t; };
  auto main = vm_->instantiate("com.example.app.Main");
  (void)vm_->call_method(main, "onCreate");
  ASSERT_GE(trace.size(), 3u);
  EXPECT_EQ(trace[0].class_name, "dalvik.system.DexClassLoader");
  EXPECT_EQ(trace[1].class_name, "com.adsdk.core.AdLoader");
  EXPECT_EQ(trace[2].class_name, "com.example.app.Main");
}

// ---------------------------------------------------------------------------
// File instrumentation: delete/rename mediation.
// ---------------------------------------------------------------------------

dex::DexFile file_delete_app() {
  dex::DexBuilder b;
  auto m = b.cls("com.example.app.Main", "android.app.Activity")
               .method("wipe", 1);
  m.new_instance(1, "java.io.File");
  m.const_str(2, "/data/data/com.example.app/cache/tmp.dex");
  m.invoke_virtual("java.io.File", "<init>", {1, 2});
  m.invoke_virtual("java.io.File", "delete", {1});
  m.move_result(3);
  m.ret(3);
  m.done();
  return b.build();
}

TEST_F(VmTest, FileDeleteBlockedByHookSilentlyFails) {
  boot(file_delete_app());
  ASSERT_TRUE(
      device_.vfs()
          .write_file(os::Principal::system(),
                      "/data/data/com.example.app/cache/tmp.dex",
                      to_bytes("payload"))
          .ok());
  vm_->instrumentation().allow_file_delete =
      [](const std::string&) { return false; };
  auto main = vm_->instantiate("com.example.app.Main");
  EXPECT_EQ(vm_->call_method(main, "wipe").as_int(), 0);  // silent failure
  EXPECT_TRUE(
      device_.vfs().exists("/data/data/com.example.app/cache/tmp.dex"));
}

TEST_F(VmTest, FileDeleteAllowedWhenNotQueued) {
  boot(file_delete_app());
  ASSERT_TRUE(
      device_.vfs()
          .write_file(os::Principal::system(),
                      "/data/data/com.example.app/cache/tmp.dex",
                      to_bytes("payload"))
          .ok());
  vm_->instrumentation().allow_file_delete =
      [](const std::string&) { return true; };
  auto main = vm_->instantiate("com.example.app.Main");
  EXPECT_EQ(vm_->call_method(main, "wipe").as_int(), 1);
  EXPECT_FALSE(
      device_.vfs().exists("/data/data/com.example.app/cache/tmp.dex"));
}

// ---------------------------------------------------------------------------
// Download + flow tracking (Table I).
// ---------------------------------------------------------------------------

/// App that downloads a URL to a file via URL -> InputStream -> Buffer ->
/// OutputStream -> File, then DexClassLoader-loads it.
dex::DexFile downloader_app() {
  dex::DexBuilder b;
  auto m = b.cls("com.example.app.Main", "android.app.Activity")
               .method("update", 1);
  m.new_instance(1, "java.net.URL");
  m.const_str(2, "http://cdn.example.com/update.dex");
  m.invoke_virtual("java.net.URL", "<init>", {1, 2});
  m.invoke_virtual("java.net.URL", "openConnection", {1});
  m.move_result(3);
  m.invoke_virtual("java.net.URLConnection", "getInputStream", {3});
  m.move_result(4);
  m.new_instance(5, "java.io.FileOutputStream");
  m.const_str(6, "/data/data/com.example.app/files/update.dex");
  m.invoke_virtual("java.io.FileOutputStream", "<init>", {5, 6});
  m.label("copy");
  m.invoke_virtual("java.io.InputStream", "read", {4});
  m.move_result(7);
  m.if_eqz(7, "done");
  m.invoke_virtual("java.io.OutputStream", "write", {5, 7});
  m.jump("copy");
  m.label("done");
  m.new_instance(8, "dalvik.system.DexClassLoader");
  m.invoke_virtual("dalvik.system.DexClassLoader", "<init>", {8, 6, 6});
  m.return_void();
  m.done();
  return b.build();
}

TEST_F(VmTest, DownloadEmitsTableOneFlows) {
  boot(downloader_app());
  device_.network().host("http://cdn.example.com/update.dex",
                         support::Blob::take(payload_dex_bytes()));
  std::vector<std::pair<FlowNodeKind, FlowNodeKind>> edges;
  std::string url_label;
  std::string file_label;
  vm_->instrumentation().on_flow = [&](const FlowNode& from,
                                       const FlowNode& to) {
    edges.emplace_back(from.kind, to.kind);
    if (from.kind == FlowNodeKind::Url) url_label = from.label;
    if (to.kind == FlowNodeKind::File) file_label = to.label;
  };
  auto main = vm_->instantiate("com.example.app.Main");
  (void)vm_->call_method(main, "update");

  auto has_edge = [&](FlowNodeKind a, FlowNodeKind b) {
    return std::find(edges.begin(), edges.end(), std::make_pair(a, b)) !=
           edges.end();
  };
  EXPECT_TRUE(has_edge(FlowNodeKind::Url, FlowNodeKind::InputStream));
  EXPECT_TRUE(has_edge(FlowNodeKind::InputStream, FlowNodeKind::Buffer));
  EXPECT_TRUE(has_edge(FlowNodeKind::Buffer, FlowNodeKind::OutputStream));
  EXPECT_TRUE(has_edge(FlowNodeKind::OutputStream, FlowNodeKind::File));
  EXPECT_EQ(url_label, "http://cdn.example.com/update.dex");
  EXPECT_EQ(file_label, "/data/data/com.example.app/files/update.dex");
  // And the downloaded dex is a loadable byte-identical copy.
  EXPECT_EQ(device_.vfs()
                .read_file("/data/data/com.example.app/files/update.dex")
                ->to_bytes(),
            payload_dex_bytes());
}

TEST_F(VmTest, FetchFailsWithoutConnectivity) {
  boot(downloader_app());
  device_.network().host("http://cdn.example.com/update.dex",
                         support::Blob::take(payload_dex_bytes()));
  device_.services().set_airplane_mode(true);
  device_.services().set_wifi_enabled(false);
  auto main = vm_->instantiate("com.example.app.Main");
  EXPECT_THROW((void)vm_->call_method(main, "update"), VmException);
}

// The Table I flow sources DownloadEmitsTableOneFlows does not take, one
// method each: URL.openStream, a FileInputStream wrapped in a
// BufferedInputStream (built, then read), File.renameTo and
// AssetManager.open.
constexpr const char* kStreamUrl = "http://cdn.example.com/a.dex";
constexpr const char* kFileA = "/data/data/com.example.app/files/a.dex";
constexpr const char* kFileB = "/data/data/com.example.app/files/b.dex";

dex::DexFile flow_sources_app() {
  dex::DexBuilder b;
  auto cls = b.cls("com.example.app.Main", "android.app.Activity");
  auto open = cls.method("open_stream", 1);
  open.new_instance(1, "java.net.URL");
  open.const_str(2, kStreamUrl);
  open.invoke_virtual("java.net.URL", "<init>", {1, 2});
  open.invoke_virtual("java.net.URL", "openStream", {1});
  open.return_void();
  open.done();
  for (const bool read : {false, true}) {
    auto m = cls.method(read ? "read_wrapped" : "wrap_file", 1);
    m.new_instance(1, "java.io.FileInputStream");
    m.const_str(2, kFileA);
    m.invoke_virtual("java.io.FileInputStream", "<init>", {1, 2});
    m.new_instance(3, "java.io.BufferedInputStream");
    m.invoke_virtual("java.io.BufferedInputStream", "<init>", {3, 1});
    if (read) m.invoke_virtual("java.io.InputStream", "read", {3});
    m.ret(3);
    m.done();
  }
  auto rename = cls.method("rename", 1);
  rename.new_instance(1, "java.io.File");
  rename.const_str(2, kFileA);
  rename.invoke_virtual("java.io.File", "<init>", {1, 2});
  rename.new_instance(3, "java.io.File");
  rename.const_str(4, kFileB);
  rename.invoke_virtual("java.io.File", "<init>", {3, 4});
  rename.invoke_virtual("java.io.File", "renameTo", {1, 3});
  rename.move_result(5);
  rename.ret(5);
  rename.done();
  auto asset = cls.method("open_asset", 1);
  asset.const_str(1, "a.bin");
  asset.invoke_static("android.content.res.AssetManager", "open", {1});
  asset.return_void();
  asset.done();
  return b.build();
}

class FlowSourceTest : public VmTest {
 protected:
  void SetUp() override {
    boot(flow_sources_app());
    ASSERT_TRUE(device_.vfs()
                    .write_file(os::Principal::system(), kFileA,
                                to_bytes("payload"))
                    .ok());
    vm_->instrumentation().on_flow = [this](const FlowNode& from,
                                            const FlowNode& to) {
      flows_.emplace_back(from, to);
    };
  }

  Value call(std::string_view method) {
    return vm_->call_method(vm_->instantiate("com.example.app.Main"), method);
  }

  /// True when some recorded edge runs from a `from` node to a `to` node;
  /// an empty label or a zero object id matches any.
  bool has_flow(FlowNodeKind from, std::string_view from_label,
                FlowNodeKind to, std::string_view to_label = "",
                std::uint64_t from_id = 0) const {
    for (const auto& [a, b] : flows_) {
      if (a.kind == from && b.kind == to &&
          (from_label.empty() || a.label == from_label) &&
          (to_label.empty() || b.label == to_label) &&
          (from_id == 0 || a.object_id == from_id)) {
        return true;
      }
    }
    return false;
  }

  std::vector<std::pair<FlowNode, FlowNode>> flows_;
};

TEST_F(FlowSourceTest, OpenStreamReportsTheUrlAndItsFlow) {
  device_.network().host(kStreamUrl, support::Blob::of_string("dex"));
  std::vector<std::string> urls;
  vm_->instrumentation().on_url_created = [&](const FlowNode& node) {
    urls.push_back(node.label);
  };
  (void)call("open_stream");
  EXPECT_EQ(urls, std::vector<std::string>{kStreamUrl});
  EXPECT_TRUE(has_flow(FlowNodeKind::Url, kStreamUrl,
                       FlowNodeKind::InputStream));
}

TEST_F(FlowSourceTest, FileStreamsEmitTheirFlowsWhenBuilt) {
  // No read: the File -> stream and stream -> wrapper edges come from the
  // two constructors alone.
  (void)call("wrap_file");
  EXPECT_TRUE(has_flow(FlowNodeKind::File, kFileA, FlowNodeKind::InputStream));
  EXPECT_TRUE(has_flow(FlowNodeKind::InputStream, "",
                       FlowNodeKind::InputStream));
}

TEST_F(FlowSourceTest, WrappedReadFlowsFromTheWrapper) {
  const auto wrapper = call("read_wrapped").as_obj()->id();
  EXPECT_TRUE(has_flow(FlowNodeKind::InputStream, "", FlowNodeKind::Buffer,
                       "", wrapper));
}

TEST_F(FlowSourceTest, RenameMovesTheFileAndItsProvenance) {
  std::vector<std::string> written;
  vm_->instrumentation().on_file_written = [&](const std::string& path) {
    written.push_back(path);
  };
  EXPECT_EQ(call("rename").as_int(), 1);
  EXPECT_FALSE(device_.vfs().exists(kFileA));
  EXPECT_TRUE(device_.vfs().exists(kFileB));
  EXPECT_TRUE(has_flow(FlowNodeKind::File, kFileA, FlowNodeKind::File, kFileB));
  EXPECT_EQ(written, std::vector<std::string>{kFileB});
}

TEST_F(FlowSourceTest, AssetOpenFlowsFromTheInstalledApk) {
  // Reinstalled with an asset, the package's APK under /data/app is the
  // File node the asset stream flows from.
  apk_.put("assets/a.bin", to_bytes("payload"));
  ASSERT_TRUE(device_.install(apk_).ok());
  (void)call("open_asset");
  EXPECT_TRUE(has_flow(FlowNodeKind::File, "/data/app/com.example.app.apk",
                       FlowNodeKind::InputStream));
}

TEST_F(FlowSourceTest, RenameBlockedByHookSilentlyFails) {
  // The interceptor refuses to let a queued payload move (paper §III-B).
  std::vector<std::pair<std::string, std::string>> asked;
  vm_->instrumentation().allow_file_rename = [&](const std::string& from,
                                                 const std::string& to) {
    asked.emplace_back(from, to);
    return false;
  };
  EXPECT_EQ(call("rename").as_int(), 0);
  EXPECT_TRUE(device_.vfs().exists(kFileA));
  EXPECT_FALSE(device_.vfs().exists(kFileB));
  ASSERT_EQ(asked.size(), 1u);
  EXPECT_EQ(asked[0].first, kFileA);
  EXPECT_EQ(asked[0].second, kFileB);
}

// A BufferedInputStream chain that revisits a stream must raise, not recurse
// until the process dies. S.read() wires v0 (and v1) and reads v0. The
// cycle the app built dies with the Vm's heap (LeakSanitizer checks it).
dex::DexFile stream_cycle_app(bool two_streams) {
  dex::DexBuilder b;
  auto cls = b.cls("com.example.app.S");
  auto m = cls.static_method("read", 0);
  m.new_instance(0, "java.io.BufferedInputStream");
  m.new_instance(1, "java.io.BufferedInputStream");
  m.invoke_virtual("java.io.BufferedInputStream", "<init>",
                   {0, static_cast<std::uint16_t>(two_streams ? 1 : 0)});
  if (two_streams) {
    m.invoke_virtual("java.io.BufferedInputStream", "<init>", {1, 0});
  }
  m.invoke_virtual("java.io.InputStream", "read", {0});
  m.done();
  return b.build();
}

std::string read_cycle_error(Vm& vm) {
  std::string what = "no exception";
  try {
    (void)vm.call_static("com.example.app.S", "read");
  } catch (const VmException& e) {
    what = e.what();
  }
  return what;
}

TEST_F(VmTest, SelfWrappingStreamReadRaises) {
  boot(stream_cycle_app(/*two_streams=*/false));
  EXPECT_EQ(read_cycle_error(*vm_),
            "StackOverflowError: input stream wrapper chain");
}

TEST_F(VmTest, CyclicStreamWrappersReadRaises) {
  boot(stream_cycle_app(/*two_streams=*/true));
  EXPECT_EQ(read_cycle_error(*vm_),
            "StackOverflowError: input stream wrapper chain");
}

// An object whose field points back at itself is an app-built cycle too:
// it reads back as the same object, and dies with the Vm (LeakSanitizer
// checks it).
TEST_F(VmTest, SelfReferencingFieldIsFreedWithTheVm) {
  dex::DexBuilder b;
  auto cls = b.cls("com.example.app.Node");
  cls.instance_field("self");
  auto m = cls.static_method("loop", 0);
  m.new_instance(0, "com.example.app.Node");
  m.iput(0, 0, "self");
  m.iget(1, 0, "self");
  m.cmp_eq(2, 0, 1);
  m.ret(2);
  m.done();
  boot(b.build());
  EXPECT_EQ(vm_->call_static("com.example.app.Node", "loop").as_int(), 1);
  vm_.reset();
}

// ---------------------------------------------------------------------------
// Value semantics: how values render and compare.
// ---------------------------------------------------------------------------

class ValueSemantics : public VmTest {};

// An object renders as <class>@<id>, and each Vm counts ids from 1: the
// download tracker's "hash code" (Table I) and every crash message that
// names an object depend on both.
TEST_F(ValueSemantics, ObjectDisplayIsClassAtVmId) {
  dex::DexBuilder b;
  auto m = b.cls("com.example.app.Main", "android.app.Activity")
               .method("boom", 1);
  m.new_instance(1, "java.io.File");
  m.new_instance(2, "com.example.app.Main");
  m.const_str(3, "x");
  m.concat(4, 3, 2);
  m.concat(5, 4, 1);
  m.throw_str(5);
  m.done();
  boot(b.build());
  for (int run = 0; run < 2; ++run) {
    if (run == 1) restart();
    auto main = vm_->instantiate("com.example.app.Main");
    std::string what = "no exception";
    try {
      (void)vm_->call_method(main, "boom");
    } catch (const VmException& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "xcom.example.app.Main@3java.io.File@2") << "run " << run;
  }
}

// Objects compare by identity, not by class or content; a copy of a
// reference is the same object; null equals null.
TEST_F(ValueSemantics, ObjectsCompareByIdentity) {
  dex::DexBuilder b;
  auto cls = b.cls("com.example.app.Q");
  auto twins = cls.static_method("twins", 0);
  twins.new_instance(0, "com.example.app.Q");
  twins.new_instance(1, "com.example.app.Q");
  twins.cmp_eq(2, 0, 1);
  twins.ret(2);
  twins.done();
  auto copy = cls.static_method("copy", 0);
  copy.new_instance(0, "com.example.app.Q");
  copy.move(1, 0);
  copy.cmp_eq(2, 0, 1);
  copy.ret(2);
  copy.done();
  auto nulls = cls.static_method("nulls", 0);
  nulls.cmp_eq(2, 0, 1);  // v0 and v1 were never written
  nulls.ret(2);
  nulls.done();
  boot(b.build());
  EXPECT_EQ(vm_->call_static("com.example.app.Q", "twins").as_int(), 0);
  EXPECT_EQ(vm_->call_static("com.example.app.Q", "copy").as_int(), 1);
  EXPECT_EQ(vm_->call_static("com.example.app.Q", "nulls").as_int(), 1);
}

// ---------------------------------------------------------------------------
// Native loading & native dispatch.
// ---------------------------------------------------------------------------

support::Bytes hook_lib_bytes() {
  nativebin::NativeLibrary lib("libhook", nativebin::Arch::Arm);
  dex::DexBuilder b;
  auto cls = b.cls("native.hook.Core");
  auto attach = cls.static_method("attach", 0);
  attach.const_str(0, "com.tencent.mobileqq");
  attach.invoke_static("libc", "ptrace", {0});
  attach.move_result(1);
  attach.ret(1);
  attach.done();
  lib.code() = b.build();
  return lib.serialize();
}

TEST_F(VmTest, LoadLibraryResolvesAppLibDirAndDispatchesNative) {
  dex::DexBuilder b;
  auto cls = b.cls("com.example.app.Main", "android.app.Activity");
  cls.native_method("attach", 0);
  auto m = cls.method("go", 1);
  m.const_str(1, "hook");
  m.invoke_static("java.lang.System", "loadLibrary", {1});
  m.invoke_static("com.example.app.Main", "attach");
  m.move_result(2);
  m.ret(2);
  m.done();
  boot(b.build());
  ASSERT_TRUE(device_.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.example.app/lib/libhook.so",
                              hook_lib_bytes())
                  .ok());
  std::string loaded_path;
  vm_->instrumentation().on_native_load =
      [&](const std::string& path, const StackTrace&) { loaded_path = path; };
  auto main = vm_->instantiate("com.example.app.Main");
  EXPECT_EQ(vm_->call_method(main, "go").as_int(), 1);
  EXPECT_EQ(loaded_path, "/data/data/com.example.app/lib/libhook.so");
  // The native body ran: ptrace event recorded.
  ASSERT_FALSE(vm_->events().empty());
  bool saw_ptrace = false;
  for (const auto& e : vm_->events()) saw_ptrace |= (e.kind == "ptrace");
  EXPECT_TRUE(saw_ptrace);
}

TEST_F(VmTest, SystemLibraryLoadIsTrustedNoop) {
  dex::DexBuilder b;
  b.cls("com.example.app.Main", "android.app.Activity")
      .method("go", 1)
      .const_str(1, "/system/lib/libc.so")
      .invoke_static("java.lang.System", "load", {1})
      .done();
  boot(b.build());
  std::string loaded_path;
  vm_->instrumentation().on_native_load =
      [&](const std::string& path, const StackTrace&) { loaded_path = path; };
  auto main = vm_->instantiate("com.example.app.Main");
  EXPECT_NO_THROW((void)vm_->call_method(main, "go"));
  EXPECT_EQ(loaded_path, "/system/lib/libc.so");
}

TEST_F(VmTest, Runtime0LoadAlsoHooked) {
  // The Android 7.1 load0 path (paper §III-B adaptation note).
  dex::DexBuilder b;
  auto m = b.cls("com.example.app.Main", "android.app.Activity")
               .method("go", 1);
  m.invoke_static("java.lang.Runtime", "getRuntime");
  m.move_result(1);
  m.const_str(2, "/data/data/com.example.app/lib/libhook.so");
  m.invoke_virtual("java.lang.Runtime", "load0", {1, 2});
  m.return_void();
  m.done();
  boot(b.build());
  ASSERT_TRUE(device_.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.example.app/lib/libhook.so",
                              hook_lib_bytes())
                  .ok());
  std::string loaded_path;
  vm_->instrumentation().on_native_load =
      [&](const std::string& path, const StackTrace&) { loaded_path = path; };
  auto main = vm_->instantiate("com.example.app.Main");
  (void)vm_->call_method(main, "go");
  EXPECT_EQ(loaded_path, "/data/data/com.example.app/lib/libhook.so");
}

// Runtime.getRuntime().load(path) / .loadLibrary(name): the instance forms
// take their operand after the receiver. Each is a native DCL mediation
// point: the hook sees the resolved path and the interceptor logs a
// Native event attributed to the app class that made the call.
void VmTest::expect_runtime_load_hooked(std::string_view method,
                                        std::string_view operand) {
  dex::DexBuilder b;
  auto m = b.cls("com.example.app.Main", "android.app.Activity")
               .method("go", 1);
  m.invoke_static("java.lang.Runtime", "getRuntime");
  m.move_result(1);
  m.const_str(2, operand);
  m.invoke_virtual("java.lang.Runtime", method, {1, 2});
  m.return_void();
  m.done();
  boot(b.build());
  ASSERT_TRUE(device_.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.example.app/lib/libhook.so",
                              hook_lib_bytes())
                  .ok());
  core::CodeInterceptor interceptor(*vm_);
  std::string loaded_path;
  auto& hooks = vm_->instrumentation();
  hooks.on_native_load = [&, logged = hooks.on_native_load](
                             const std::string& path,
                             const StackTrace& trace) {
    loaded_path = path;
    logged(path, trace);
  };
  auto main = vm_->instantiate("com.example.app.Main");
  (void)vm_->call_method(main, "go");
  EXPECT_EQ(loaded_path, "/data/data/com.example.app/lib/libhook.so");
  ASSERT_EQ(interceptor.events().size(), 1u);
  const auto& event = interceptor.events()[0];
  EXPECT_EQ(event.kind, core::CodeKind::Native);
  EXPECT_EQ(event.call_site_class, "com.example.app.Main");
  EXPECT_EQ(event.paths, std::vector<std::string>{
                             "/data/data/com.example.app/lib/libhook.so"});
}

TEST_F(VmTest, RuntimeLoadInstanceFormIsHooked) {
  expect_runtime_load_hooked("load",
                             "/data/data/com.example.app/lib/libhook.so");
}

TEST_F(VmTest, RuntimeLoadLibraryInstanceFormIsHooked) {
  expect_runtime_load_hooked("loadLibrary", "hook");
}

TEST_F(VmTest, MissingNativeLibraryThrows) {
  dex::DexBuilder b;
  b.cls("com.example.app.Main", "android.app.Activity")
      .method("go", 1)
      .const_str(1, "absent")
      .invoke_static("java.lang.System", "loadLibrary", {1})
      .done();
  boot(b.build());
  auto main = vm_->instantiate("com.example.app.Main");
  EXPECT_THROW((void)vm_->call_method(main, "go"), VmException);
}

// ---------------------------------------------------------------------------
// Reflection & privacy-source intrinsics.
// ---------------------------------------------------------------------------

TEST_F(VmTest, ReflectionInvoke) {
  dex::DexBuilder b;
  b.cls("com.example.app.T").method("answer", 1).const_int(1, 42).ret(1).done();
  auto m = b.cls("com.example.app.Main", "android.app.Activity")
               .method("go", 1);
  m.const_str(1, "com.example.app.T");
  m.invoke_static("java.lang.Class", "forName", {1});
  m.move_result(2);
  m.invoke_virtual("java.lang.Class", "newInstance", {2});
  m.move_result(3);
  m.const_str(4, "answer");
  m.invoke_virtual("java.lang.Class", "getMethod", {2, 4});
  m.move_result(5);
  m.invoke_virtual("java.lang.reflect.Method", "invoke", {5, 3});
  m.move_result(6);
  m.ret(6);
  m.done();
  boot(b.build());
  auto main = vm_->instantiate("com.example.app.Main");
  EXPECT_EQ(vm_->call_method(main, "go").as_int(), 42);
}

TEST_F(VmTest, PrivacySourcesReturnDeviceIdentity) {
  dex::DexBuilder b;
  b.cls("com.example.app.P")
      .static_method("imei", 0)
      .invoke_static("android.telephony.TelephonyManager", "getDeviceId")
      .move_result(0)
      .ret(0)
      .done();
  boot(b.build());
  EXPECT_EQ(vm_->call_static("com.example.app.P", "imei").as_str(),
            device_.services().imei());
}

TEST_F(VmTest, EnvironmentGatesObservable) {
  dex::DexBuilder b;
  b.cls("com.example.app.P")
      .static_method("online", 0)
      .invoke_static("android.net.ConnectivityManager", "isConnected")
      .move_result(0)
      .ret(0)
      .done();
  boot(b.build());
  EXPECT_EQ(vm_->call_static("com.example.app.P", "online").as_int(), 1);
  device_.services().set_airplane_mode(true);
  device_.services().set_wifi_enabled(false);
  EXPECT_EQ(vm_->call_static("com.example.app.P", "online").as_int(), 0);
}

TEST_F(VmTest, ApiCallHookSeesFrameworkInvocations) {
  dex::DexBuilder b;
  b.cls("com.example.app.P")
      .static_method("f", 0)
      .invoke_static("android.telephony.TelephonyManager", "getDeviceId")
      .done();
  boot(b.build());
  std::vector<std::string> calls;
  vm_->instrumentation().on_api_call = [&](std::string_view c,
                                           std::string_view m2) {
    calls.push_back(std::string(c) + "." + std::string(m2));
  };
  (void)vm_->call_static("com.example.app.P", "f");
  EXPECT_NE(std::find(calls.begin(), calls.end(),
                      "android.telephony.TelephonyManager.getDeviceId"),
            calls.end());
}

// ---------------------------------------------------------------------------
// Asset access (packer substrate).
// ---------------------------------------------------------------------------

TEST_F(VmTest, AssetOpenReadsInstalledApkEntry) {
  dex::DexBuilder b;
  auto m = b.cls("com.example.app.Main", "android.app.Activity")
               .method("readAsset", 1);
  m.const_str(1, "blob.bin");
  m.invoke_static("android.content.res.AssetManager", "open", {1});
  m.move_result(2);
  m.invoke_virtual("java.io.InputStream", "read", {2});
  m.move_result(3);
  m.ret(3);
  m.done();
  auto man = base_manifest();
  auto apk = wrap_apk(b.build(), man);
  apk.put("assets/blob.bin", to_bytes("asset-payload"));
  apk.sign("test-key");
  ASSERT_TRUE(device_.install(apk).ok());
  manifest_ = man;
  vm_ = std::make_unique<Vm>(device_, manifest_);
  vm_->load_app(std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));

  auto main = vm_->instantiate("com.example.app.Main");
  const auto buf = vm_->call_method(main, "readAsset");
  ASSERT_TRUE(buf.is_obj());  // non-null buffer: asset bytes were served
}

}  // namespace
}  // namespace dydroid::vm
