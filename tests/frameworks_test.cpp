// Systematic coverage of the framework intrinsics: files & streams, URLs,
// privacy sources, sinks & events, system services, strings/crypto, libc —
// each exercised from real bytecode.
#include <gtest/gtest.h>

#include <ostream>
#include <string_view>

#include "dex/builder.hpp"
#include "os/device.hpp"
#include "vm/vm.hpp"

namespace dydroid::vm {
namespace {

constexpr const char* kPkg = "com.fw.app";

/// Harness: builds a single static method "t" from a callback, runs it.
class FrameworkTest : public ::testing::Test {
 protected:
  Value run(const std::function<void(dex::MethodBuilder&)>& body) {
    dex::DexBuilder b;
    {
      auto m = b.cls("com.fw.app.T").static_method("t", 0);
      body(m);
      m.done();
    }
    manifest::Manifest man;
    man.package = kPkg;
    man.add_permission(manifest::kInternet);
    man.add_permission(manifest::kWriteExternalStorage);
    apk::ApkFile apk;
    apk.write_manifest(man);
    apk.write_classes_dex(b.build());
    apk.sign("k");
    EXPECT_TRUE(device_.install(apk).ok());
    manifest_ = man;
    vm_ = std::make_unique<Vm>(device_, manifest_);
    vm_->load_app(
        std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));
    return vm_->call_static("com.fw.app.T", "t");
  }

  bool saw_event(const std::string& kind) const {
    for (const auto& e : vm_->events()) {
      if (e.kind == kind) return true;
    }
    return false;
  }

  os::Device device_;
  manifest::Manifest manifest_;  // the Vm borrows it
  std::unique_ptr<Vm> vm_;
};

// ---------------------------------------------------------------------------
// Files.
// ---------------------------------------------------------------------------

TEST_F(FrameworkTest, FileExistsAndLength) {
  ASSERT_TRUE(device_.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.fw.app/files/x",
                              support::to_bytes("12345"))
                  .ok());
  const auto result = run([](dex::MethodBuilder& m) {
    m.new_instance(0, "java.io.File");
    m.const_str(1, "/data/data/com.fw.app/files/x");
    m.invoke_virtual("java.io.File", "<init>", {0, 1});
    m.invoke_virtual("java.io.File", "exists", {0});
    m.move_result(2);
    m.invoke_virtual("java.io.File", "length", {0});
    m.move_result(3);
    m.mul(4, 2, 3);
    m.ret(4);
  });
  EXPECT_EQ(result.as_int(), 5);
}

TEST_F(FrameworkTest, FileTwoArgConstructorJoinsPath) {
  const auto result = run([](dex::MethodBuilder& m) {
    m.new_instance(0, "java.io.File");
    m.const_str(1, "/data/data/com.fw.app");
    m.const_str(2, "cache/z.bin");
    m.invoke_virtual("java.io.File", "<init>", {0, 1, 2});
    m.invoke_virtual("java.io.File", "getPath", {0});
    m.move_result(3);
    m.ret(3);
  });
  EXPECT_EQ(result.as_str(), "/data/data/com.fw.app/cache/z.bin");
}

TEST_F(FrameworkTest, FileAbsolutePathIsItsPath) {
  const auto result = run([](dex::MethodBuilder& m) {
    m.new_instance(0, "java.io.File");
    m.const_str(1, "/data/data/com.fw.app/files/a.dex");
    m.invoke_virtual("java.io.File", "<init>", {0, 1});
    m.invoke_virtual("java.io.File", "getAbsolutePath", {0});
    m.move_result(2);
    m.ret(2);
  });
  EXPECT_EQ(result.as_str(), "/data/data/com.fw.app/files/a.dex");
}

TEST_F(FrameworkTest, FileMkdirsSucceedsWithoutWriting) {
  // Directories are implicit in the VFS: mkdirs reports success and
  // creates nothing a later exists() would see.
  const auto result = run([](dex::MethodBuilder& m) {
    m.new_instance(0, "java.io.File");
    m.const_str(1, "/data/data/com.fw.app/files/sub");
    m.invoke_virtual("java.io.File", "<init>", {0, 1});
    m.invoke_virtual("java.io.File", "mkdirs", {0});
    m.move_result(2);
    m.invoke_virtual("java.io.File", "exists", {0});
    m.move_result(3);
    m.const_int(4, 10);
    m.mul(2, 2, 4);
    m.add(2, 2, 3);
    m.ret(2);
  });
  EXPECT_EQ(result.as_int(), 10);
}

TEST_F(FrameworkTest, WritePermissionViolationThrows) {
  EXPECT_THROW(run([](dex::MethodBuilder& m) {
                 m.new_instance(0, "java.io.FileOutputStream");
                 m.const_str(1, "/data/data/com.other.app/files/x");
                 m.invoke_virtual("java.io.FileOutputStream", "<init>",
                                  {0, 1});
                 m.const_str(2, "d");
                 m.invoke_static("java.lang.String", "getBytes", {2});
                 m.move_result(3);
                 m.invoke_virtual("java.io.OutputStream", "write", {0, 3});
               }),
               VmException);
}

TEST_F(FrameworkTest, StreamCopyPreservesBytes) {
  ASSERT_TRUE(device_.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.fw.app/files/in",
                              support::Bytes(10000, 0x5a))
                  .ok());
  (void)run([](dex::MethodBuilder& m) {
    m.new_instance(0, "java.io.FileInputStream");
    m.const_str(1, "/data/data/com.fw.app/files/in");
    m.invoke_virtual("java.io.FileInputStream", "<init>", {0, 1});
    m.new_instance(2, "java.io.FileOutputStream");
    m.const_str(3, "/data/data/com.fw.app/files/out");
    m.invoke_virtual("java.io.FileOutputStream", "<init>", {2, 3});
    m.label("l");
    m.invoke_virtual("java.io.InputStream", "read", {0});
    m.move_result(4);
    m.if_eqz(4, "e");
    m.invoke_virtual("java.io.OutputStream", "write", {2, 4});
    m.jump("l");
    m.label("e");
  });
  const auto out = device_.vfs().read_file("/data/data/com.fw.app/files/out");
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, support::Bytes(10000, 0x5a));
}

TEST_F(FrameworkTest, MissingFileInputThrows) {
  EXPECT_THROW(run([](dex::MethodBuilder& m) {
                 m.new_instance(0, "java.io.FileInputStream");
                 m.const_str(1, "/no/such/file");
                 m.invoke_virtual("java.io.FileInputStream", "<init>", {0, 1});
               }),
               VmException);
}

// ---------------------------------------------------------------------------
// Privacy sources return device data; sinks record events.
// ---------------------------------------------------------------------------

struct SourceCase {
  const char* cls;
  const char* method;
};

/// "android.util.Log" -> "Log"; "libc" stays "libc".
std::string_view simple_name(std::string_view cls) {
  return cls.substr(cls.rfind('.') + 1);
}

// gtest_discover_tests names each case after its printed GetParam(). The
// default printer dumps the struct's bytes, i.e. the string literals'
// addresses, which ASLR moves on every run; print the call instead.
void PrintTo(const SourceCase& c, std::ostream* os) {
  *os << simple_name(c.cls) << '.' << c.method;
}

class SourceTest : public FrameworkTest,
                   public ::testing::WithParamInterface<SourceCase> {};

TEST_P(SourceTest, ReturnsNonEmptyString) {
  const auto param = GetParam();
  const auto result = run([&](dex::MethodBuilder& m) {
    m.invoke_static(param.cls, param.method);
    m.move_result(0);
    m.ret(0);
  });
  EXPECT_TRUE(result.is_str());
  EXPECT_FALSE(result.as_str().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllSources, SourceTest,
    ::testing::Values(
        SourceCase{"android.telephony.TelephonyManager", "getDeviceId"},
        SourceCase{"android.telephony.TelephonyManager", "getSubscriberId"},
        SourceCase{"android.telephony.TelephonyManager", "getSimSerialNumber"},
        SourceCase{"android.telephony.TelephonyManager", "getLine1Number"},
        SourceCase{"android.location.LocationManager", "getLastKnownLocation"},
        SourceCase{"android.accounts.AccountManager", "getAccounts"},
        SourceCase{"android.content.pm.PackageManager",
                   "getInstalledApplications"},
        SourceCase{"android.content.pm.PackageManager",
                   "getInstalledPackages"}));

TEST_F(FrameworkTest, ContentResolverQueriesProviders) {
  const auto result = run([](dex::MethodBuilder& m) {
    m.const_str(0, "content://contacts");
    m.invoke_static("android.content.ContentResolver", "query", {0});
    m.move_result(1);
    m.ret(1);
  });
  EXPECT_NE(result.as_str().find("Alice"), std::string::npos);
}

struct EventCase {
  const char* cls;
  const char* method;
  const char* event;
};

void PrintTo(const EventCase& c, std::ostream* os) {
  *os << simple_name(c.cls) << '.' << c.method;
}

class SinkEventTest : public FrameworkTest,
                      public ::testing::WithParamInterface<EventCase> {};

TEST_P(SinkEventTest, RecordsVmEvent) {
  const auto param = GetParam();
  (void)run([&](dex::MethodBuilder& m) {
    m.const_str(0, "arg0");
    m.const_str(1, "arg1");
    m.invoke_static(param.cls, param.method, {0, 1});
  });
  EXPECT_TRUE(saw_event(param.event)) << param.event;
}

INSTANTIATE_TEST_SUITE_P(
    AllSinks, SinkEventTest,
    ::testing::Values(
        EventCase{"android.util.Log", "d", "log"},
        EventCase{"android.telephony.SmsManager", "sendTextMessage", "sms"},
        EventCase{"android.app.NotificationManager", "notify",
                  "notification"},
        EventCase{"com.android.launcher.Shortcut", "install", "shortcut"},
        EventCase{"android.provider.Browser", "setHomepage", "homepage"},
        EventCase{"libc", "exec", "exec"},
        EventCase{"libc", "ptrace", "ptrace"},
        EventCase{"libc", "hook_method", "hook"},
        // Log.e is a privacy sink (privacy/sources.cpp) like Log.d.
        EventCase{"android.util.Log", "e", "log"}));

// ---------------------------------------------------------------------------
// Services / environment.
// ---------------------------------------------------------------------------

TEST_F(FrameworkTest, CurrentTimeTracksServiceClock) {
  device_.services().set_time_ms(123456789);
  const auto result = run([](dex::MethodBuilder& m) {
    m.invoke_static("java.lang.System", "currentTimeMillis");
    m.move_result(0);
    m.ret(0);
  });
  EXPECT_EQ(result.as_int(), 123456789);
}

TEST_F(FrameworkTest, ThreadSleepAdvancesClock) {
  const auto before = device_.services().current_time_ms();
  (void)run([](dex::MethodBuilder& m) {
    m.const_int(0, 5000);
    m.invoke_static("java.lang.Thread", "sleep", {0});
  });
  EXPECT_EQ(device_.services().current_time_ms(), before + 5000);
}

TEST_F(FrameworkTest, AirplaneFlagAndConnectivityDiffer) {
  device_.services().set_airplane_mode(true);
  device_.services().set_wifi_enabled(true);
  const auto result = run([](dex::MethodBuilder& m) {
    m.invoke_static("android.provider.Settings", "isAirplaneModeOn");
    m.move_result(0);
    m.invoke_static("android.net.ConnectivityManager", "isConnected");
    m.move_result(1);
    m.const_int(2, 10);
    m.mul(0, 0, 2);
    m.add(0, 0, 1);
    m.ret(0);
  });
  // Airplane flag on (1) * 10 + connected (1, via WiFi) = 11.
  EXPECT_EQ(result.as_int(), 11);
}

TEST_F(FrameworkTest, WifiStateFollowsTheDevice) {
  device_.services().set_wifi_enabled(false);
  const auto off = run([](dex::MethodBuilder& m) {
    m.invoke_static("android.net.wifi.WifiManager", "isWifiEnabled");
    m.move_result(0);
    m.ret(0);
  });
  EXPECT_EQ(off.as_int(), 0);
  device_.services().set_wifi_enabled(true);
  EXPECT_EQ(vm_->call_static("com.fw.app.T", "t").as_int(), 1);
}

TEST_F(FrameworkTest, ExternalStorageDirConstant) {
  const auto result = run([](dex::MethodBuilder& m) {
    m.invoke_static("android.os.Environment", "getExternalStorageDirectory");
    m.move_result(0);
    m.ret(0);
  });
  EXPECT_EQ(result.as_str(), "/mnt/sdcard");
}

TEST_F(FrameworkTest, ContextDirsScopedToApp) {
  const auto result = run([](dex::MethodBuilder& m) {
    m.invoke_static("android.content.Context", "getFilesDir");
    m.move_result(0);
    m.invoke_static("android.content.Context", "getCacheDir");
    m.move_result(1);
    m.concat(2, 0, 1);
    m.ret(2);
  });
  EXPECT_EQ(result.as_str(),
            "/data/data/com.fw.app/files/data/data/com.fw.app/cache");
}

TEST_F(FrameworkTest, ContextPackageNameIsTheHostApp) {
  const auto result = run([](dex::MethodBuilder& m) {
    m.invoke_static("android.content.Context", "getPackageName");
    m.move_result(0);
    m.ret(0);
  });
  EXPECT_EQ(result.as_str(), kPkg);
}

TEST_F(FrameworkTest, ClassGetNameNamesTheLoadedClass) {
  const auto result = run([](dex::MethodBuilder& m) {
    m.const_str(0, "com.fw.app.T");
    m.invoke_static("java.lang.Class", "forName", {0});
    m.move_result(1);
    m.invoke_virtual("java.lang.Class", "getName", {1});
    m.move_result(2);
    m.ret(2);
  });
  EXPECT_EQ(result.as_str(), "com.fw.app.T");
}

// ---------------------------------------------------------------------------
// Strings & crypto.
// ---------------------------------------------------------------------------

TEST_F(FrameworkTest, StringBytesRoundTrip) {
  const auto result = run([](dex::MethodBuilder& m) {
    m.const_str(0, "round-trip-me");
    m.invoke_static("java.lang.String", "getBytes", {0});
    m.move_result(1);
    m.invoke_static("java.lang.String", "valueOf", {1});
    m.move_result(2);
    m.ret(2);
  });
  EXPECT_EQ(result.as_str(), "round-trip-me");
}

TEST_F(FrameworkTest, XorDecryptIsInvolution) {
  const auto result = run([](dex::MethodBuilder& m) {
    m.const_str(0, "secret-data!");
    m.invoke_static("java.lang.String", "getBytes", {0});
    m.move_result(1);
    m.const_str(2, "k3y!");
    m.invoke_static("libc", "xor_decrypt", {1, 2});
    m.move_result(3);
    m.invoke_static("libc", "xor_decrypt", {3, 2});
    m.move_result(4);
    m.invoke_static("java.lang.String", "valueOf", {4});
    m.move_result(5);
    m.ret(5);
  });
  EXPECT_EQ(result.as_str(), "secret-data!");
}

TEST_F(FrameworkTest, DigestStableAndContentSensitive) {
  ASSERT_TRUE(device_.vfs()
                  .write_file(os::Principal::system(),
                              "/data/data/com.fw.app/files/f1",
                              support::to_bytes("content-a"))
                  .ok());
  const auto result = run([](dex::MethodBuilder& m) {
    m.const_str(0, "/data/data/com.fw.app/files/f1");
    m.invoke_static("java.security.MessageDigest", "digest", {0});
    m.move_result(1);
    m.invoke_static("java.security.MessageDigest", "digest", {0});
    m.move_result(2);
    m.cmp_eq(3, 1, 2);
    m.ret(3);
  });
  EXPECT_EQ(result.as_int(), 1);
}

TEST_F(FrameworkTest, MapLibraryName) {
  const auto result = run([](dex::MethodBuilder& m) {
    m.const_str(0, "engine");
    m.invoke_static("java.lang.System", "mapLibraryName", {0});
    m.move_result(1);
    m.ret(1);
  });
  EXPECT_EQ(result.as_str(), "libengine.so");
}

TEST_F(FrameworkTest, UnknownIntrinsicThrowsNoSuchMethod) {
  try {
    (void)run([](dex::MethodBuilder& m) {
      m.invoke_static("android.never.Heard", "ofIt");
    });
    FAIL();
  } catch (const VmException& e) {
    EXPECT_NE(std::string(e.what()).find("NoSuchMethodError"),
              std::string::npos);
  }
}

TEST_F(FrameworkTest, NetWriteRecordsEvent) {
  device_.network().host("http://sink.example/up",
                         support::Blob::of_string("ok"));
  (void)run([](dex::MethodBuilder& m) {
    m.new_instance(0, "java.net.URL");
    m.const_str(1, "http://sink.example/up");
    m.invoke_virtual("java.net.URL", "<init>", {0, 1});
    m.invoke_virtual("java.net.URL", "openConnection", {0});
    m.move_result(2);
    m.invoke_virtual("java.net.URLConnection", "getOutputStream", {2});
    m.move_result(3);
    m.const_str(4, "exfil");
    m.invoke_static("java.lang.String", "getBytes", {4});
    m.move_result(5);
    m.invoke_virtual("java.io.OutputStream", "write", {3, 5});
  });
  EXPECT_TRUE(saw_event("net_write"));
}

TEST_F(FrameworkTest, ResponseCodeReflectsHosting) {
  device_.network().host("http://up.example/x",
                         support::Blob::of_string("y"));
  const auto result = run([](dex::MethodBuilder& m) {
    m.new_instance(0, "java.net.URL");
    m.const_str(1, "http://up.example/x");
    m.invoke_virtual("java.net.URL", "<init>", {0, 1});
    m.invoke_virtual("java.net.URL", "openConnection", {0});
    m.move_result(2);
    m.invoke_virtual("java.net.HttpURLConnection", "getResponseCode", {2});
    m.move_result(3);
    m.new_instance(4, "java.net.URL");
    m.const_str(5, "http://down.example/x");
    m.invoke_virtual("java.net.URL", "<init>", {4, 5});
    m.invoke_virtual("java.net.URL", "openConnection", {4});
    m.move_result(6);
    m.invoke_virtual("java.net.HttpURLConnection", "getResponseCode", {6});
    m.move_result(7);
    m.const_int(8, 1000);
    m.mul(3, 3, 8);
    m.add(3, 3, 7);
    m.ret(3);
  });
  EXPECT_EQ(result.as_int(), 200 * 1000 + 404);
}

}  // namespace
}  // namespace dydroid::vm
