#include "appgen/generator.hpp"

#include "dex/builder.hpp"
#include "nativebin/native_library.hpp"
#include "obfuscation/language_db.hpp"
#include "obfuscation/lexical.hpp"
#include "obfuscation/packer.hpp"
#include "obfuscation/poison.hpp"
#include "os/device.hpp"
#include "os/services.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace dydroid::appgen {

using dex::DexBuilder;
using dex::MethodBuilder;
using support::Bytes;
using support::Rng;

namespace {

// ---------------------------------------------------------------------------
// Naming.
// ---------------------------------------------------------------------------

std::string camel(const std::string& a, const std::string& b) {
  auto cap = [](std::string w) {
    if (!w.empty()) w[0] = static_cast<char>(std::toupper(w[0]));
    return w;
  };
  return cap(a) + cap(b);
}

std::string pick_word(Rng& rng) {
  return rng.pick(obfuscation::dictionary_words());
}

// ---------------------------------------------------------------------------
// Bytecode emission helpers. Each helper uses registers [base, base+8) and
// label names suffixed by `tag` so several can coexist in one method.
// ---------------------------------------------------------------------------

/// AssetManager.open(asset) -> stream -> FileOutputStream(dest) copy loop.
void emit_copy_asset(MethodBuilder& m, const std::string& asset,
                     const std::string& dest, std::uint16_t r,
                     const std::string& tag) {
  m.const_str(r, asset);
  m.invoke_static("android.content.res.AssetManager", "open", {r});
  m.move_result(static_cast<std::uint16_t>(r + 1));
  m.new_instance(static_cast<std::uint16_t>(r + 2), "java.io.FileOutputStream");
  m.const_str(static_cast<std::uint16_t>(r + 3), dest);
  m.invoke_virtual("java.io.FileOutputStream", "<init>",
                   {static_cast<std::uint16_t>(r + 2),
                    static_cast<std::uint16_t>(r + 3)});
  m.label("copy_" + tag);
  m.invoke_virtual("java.io.InputStream", "read",
                   {static_cast<std::uint16_t>(r + 1)});
  m.move_result(static_cast<std::uint16_t>(r + 4));
  m.if_eqz(static_cast<std::uint16_t>(r + 4), "done_" + tag);
  m.invoke_virtual("java.io.OutputStream", "write",
                   {static_cast<std::uint16_t>(r + 2),
                    static_cast<std::uint16_t>(r + 4)});
  m.jump("copy_" + tag);
  m.label("done_" + tag);
}

/// URL(url) -> connection -> input stream -> FileOutputStream(dest) loop.
void emit_download(MethodBuilder& m, const std::string& url,
                   const std::string& dest, std::uint16_t r,
                   const std::string& tag) {
  m.new_instance(r, "java.net.URL");
  m.const_str(static_cast<std::uint16_t>(r + 1), url);
  m.invoke_virtual("java.net.URL", "<init>",
                   {r, static_cast<std::uint16_t>(r + 1)});
  m.invoke_virtual("java.net.URL", "openConnection", {r});
  m.move_result(static_cast<std::uint16_t>(r + 2));
  m.invoke_virtual("java.net.URLConnection", "getInputStream",
                   {static_cast<std::uint16_t>(r + 2)});
  m.move_result(static_cast<std::uint16_t>(r + 7));
  // Real SDK idiom: wrap the network stream (Table I InputStream ->
  // InputStream edge).
  m.new_instance(static_cast<std::uint16_t>(r + 3),
                 "java.io.BufferedInputStream");
  m.invoke_virtual("java.io.BufferedInputStream", "<init>",
                   {static_cast<std::uint16_t>(r + 3),
                    static_cast<std::uint16_t>(r + 7)});
  m.new_instance(static_cast<std::uint16_t>(r + 4), "java.io.FileOutputStream");
  m.const_str(static_cast<std::uint16_t>(r + 5), dest);
  m.invoke_virtual("java.io.FileOutputStream", "<init>",
                   {static_cast<std::uint16_t>(r + 4),
                    static_cast<std::uint16_t>(r + 5)});
  m.label("dl_" + tag);
  m.invoke_virtual("java.io.InputStream", "read",
                   {static_cast<std::uint16_t>(r + 3)});
  m.move_result(static_cast<std::uint16_t>(r + 6));
  m.if_eqz(static_cast<std::uint16_t>(r + 6), "dld_" + tag);
  m.invoke_virtual("java.io.OutputStream", "write",
                   {static_cast<std::uint16_t>(r + 4),
                    static_cast<std::uint16_t>(r + 6)});
  m.jump("dl_" + tag);
  m.label("dld_" + tag);
}

/// DexClassLoader(path, opt_dir) -> loadClass(payload) -> newInstance ->
/// run().
void emit_dex_load_run(MethodBuilder& m, const std::string& path,
                       const std::string& opt_dir,
                       const std::string& payload_class, std::uint16_t r,
                       const std::string& tag, bool run = true) {
  (void)tag;
  m.new_instance(r, "dalvik.system.DexClassLoader");
  m.const_str(static_cast<std::uint16_t>(r + 1), path);
  m.const_str(static_cast<std::uint16_t>(r + 2), opt_dir);
  m.invoke_virtual("dalvik.system.DexClassLoader", "<init>",
                   {r, static_cast<std::uint16_t>(r + 1),
                    static_cast<std::uint16_t>(r + 2)});
  if (!run) return;
  m.const_str(static_cast<std::uint16_t>(r + 3), payload_class);
  m.invoke_virtual("dalvik.system.DexClassLoader", "loadClass",
                   {r, static_cast<std::uint16_t>(r + 3)});
  m.move_result(static_cast<std::uint16_t>(r + 4));
  m.invoke_virtual("java.lang.Class", "newInstance",
                   {static_cast<std::uint16_t>(r + 4)});
  m.move_result(static_cast<std::uint16_t>(r + 5));
  m.invoke_virtual(payload_class, "run",
                   {static_cast<std::uint16_t>(r + 5)});
}

/// Environment gates (Table VIII): jump to `skip_label` unless every gate
/// passes.
void emit_gates(MethodBuilder& m, const std::vector<MalwareTrigger>& triggers,
                const std::string& skip_label, std::uint16_t r) {
  for (const auto trigger : triggers) {
    switch (trigger) {
      case MalwareTrigger::SystemTime:
        // skip when now < release date
        m.invoke_static("java.lang.System", "currentTimeMillis");
        m.move_result(r);
        m.const_int(static_cast<std::uint16_t>(r + 1), kReleaseTimeMs);
        m.cmp_lt(static_cast<std::uint16_t>(r + 2), r,
                 static_cast<std::uint16_t>(r + 1));
        m.if_nez(static_cast<std::uint16_t>(r + 2), skip_label);
        break;
      case MalwareTrigger::AirplaneMode:
        m.invoke_static("android.provider.Settings", "isAirplaneModeOn");
        m.move_result(r);
        m.if_nez(r, skip_label);
        break;
      case MalwareTrigger::Connectivity:
        m.invoke_static("android.net.ConnectivityManager", "isConnected");
        m.move_result(r);
        m.if_eqz(r, skip_label);
        break;
      case MalwareTrigger::Location:
        m.invoke_static("android.location.LocationManager",
                        "isProviderEnabled");
        m.move_result(r);
        m.if_eqz(r, skip_label);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Payload builders.
// ---------------------------------------------------------------------------

/// A loadable dex whose single class leaks the given data types to Log.d.
/// With mask == 0, a benign busy-loop plugin.
Bytes privacy_payload(const std::string& payload_class,
                      privacy::TaintMask mask) {
  DexBuilder b;
  auto cls = b.cls(payload_class);
  auto m = cls.method("run", 1);
  std::uint16_t tmp = 1;
  if (mask == 0) {
    m.const_int(tmp, 7);
    m.const_str(static_cast<std::uint16_t>(tmp + 1), "plugin-ready");
    m.invoke_static("android.util.Log", "d",
                    {static_cast<std::uint16_t>(tmp + 1),
                     static_cast<std::uint16_t>(tmp + 1)});
    m.return_void();
    m.done();
    return b.build().serialize();
  }
  m.const_str(6, "trk");
  for (const auto type : privacy::types_in(mask)) {
    using privacy::DataType;
    switch (type) {
      case DataType::Location:
        m.invoke_static("android.location.LocationManager",
                        "getLastKnownLocation");
        break;
      case DataType::Imei:
        m.invoke_static("android.telephony.TelephonyManager", "getDeviceId");
        break;
      case DataType::Imsi:
        m.invoke_static("android.telephony.TelephonyManager",
                        "getSubscriberId");
        break;
      case DataType::Iccid:
        m.invoke_static("android.telephony.TelephonyManager",
                        "getSimSerialNumber");
        break;
      case DataType::PhoneNumber:
        m.invoke_static("android.telephony.TelephonyManager",
                        "getLine1Number");
        break;
      case DataType::Account:
        m.invoke_static("android.accounts.AccountManager", "getAccounts");
        break;
      case DataType::InstalledApplications:
        m.invoke_static("android.content.pm.PackageManager",
                        "getInstalledApplications");
        break;
      case DataType::InstalledPackages:
        m.invoke_static("android.content.pm.PackageManager",
                        "getInstalledPackages");
        break;
      default: {
        // Content-provider types: query by URI.
        std::string uri;
        switch (type) {
          case DataType::Contact: uri = os::kUriContacts; break;
          case DataType::Calendar: uri = os::kUriCalendar; break;
          case DataType::CallLog: uri = os::kUriCallLog; break;
          case DataType::Browser: uri = os::kUriBrowser; break;
          case DataType::Audio: uri = os::kUriAudio; break;
          case DataType::Image: uri = os::kUriImages; break;
          case DataType::Video: uri = os::kUriVideo; break;
          case DataType::Settings: uri = os::kUriSettings; break;
          case DataType::Mms: uri = os::kUriMms; break;
          case DataType::Sms: uri = os::kUriSms; break;
          default: uri = os::kUriSettings; break;
        }
        m.const_str(tmp, uri);
        m.invoke_static("android.content.ContentResolver", "query", {tmp});
        break;
      }
    }
    m.move_result(static_cast<std::uint16_t>(tmp + 1));
    m.invoke_static("android.util.Log", "d",
                    {6, static_cast<std::uint16_t>(tmp + 1)});
  }
  m.return_void();
  m.done();
  return b.build().serialize();
}

/// Google-Ads-like payload: reads device Settings only (paper §V-B(f)).
Bytes ad_payload() {
  return privacy_payload("com.google.ads.dynamic.AdRenderer",
                         privacy::mask_of(privacy::DataType::Settings));
}

/// Baidu remote payload: packed as a JAR-like container with classes.dex.
Bytes baidu_payload_jar() {
  apk::ApkFile jar;
  manifest::Manifest m;
  m.package = "com.baidu.mobads.dynamic";
  jar.write_manifest(m);
  jar.put(apk::kClassesDexEntry,
          privacy_payload("com.baidu.mobads.dynamic.Render",
                          privacy::mask_of(privacy::DataType::Settings)));
  jar.sign("baidu-sdk");
  return jar.serialize();
}

/// Benign native library exporting one init symbol.
Bytes benign_native_lib(const std::string& soname, const std::string& symbol,
                        const std::string& owner_class) {
  nativebin::NativeLibrary lib(soname, nativebin::Arch::Arm);
  DexBuilder b;
  b.cls(owner_class)
      .static_method(symbol, 0)
      .const_int(0, 0)
      .ret(0)
      .done();
  lib.code() = b.build();
  return lib.serialize();
}

// ---------------------------------------------------------------------------
// Host-app assembly.
// ---------------------------------------------------------------------------

struct Build {
  const AppSpec* spec = nullptr;
  DexBuilder dex;
  apk::ApkFile apk;
  manifest::Manifest man;
  os::Scenario scenario;
  std::vector<std::string> boot_calls;  // static boot() methods to invoke
  int malware_index = 0;
};

std::string internal(const Build& b, const std::string& rel) {
  return os::internal_storage_dir(b.man.package) + "/" + rel;
}

void add_ad_sdk(Build& b) {
  b.apk.put(std::string(apk::kAssetsDirPrefix) + "ad_payload.bin",
            ad_payload());
  auto cls = b.dex.cls("com.google.ads.sdk.MediaLoader");
  auto m = cls.static_method("boot", 0);
  const auto cache = internal(b, "cache");
  const auto dest = internal(b, "cache/ad1.dex");
  emit_copy_asset(m, "ad_payload.bin", dest, 0, "ad");
  emit_dex_load_run(m, dest, cache, "com.google.ads.dynamic.AdRenderer", 8,
                    "ad");
  // Temporary file: delete after the load/merge (the interception-mutex
  // case — paper §III-B).
  m.new_instance(0, "java.io.File");
  m.const_str(1, dest);
  m.invoke_virtual("java.io.File", "<init>", {0, 1});
  m.invoke_virtual("java.io.File", "delete", {0});
  m.done();
  b.boot_calls.push_back("com.google.ads.sdk.MediaLoader");
}

void add_baidu_sdk(Build& b) {
  const auto url =
      "http://mobads.baidu.com/ads/pa/" + b.man.package + ".jar";
  b.scenario.hosted_urls.emplace_back(
      url, support::Blob::take(baidu_payload_jar()));
  auto cls = b.dex.cls("com.baidu.mobads.AdView");
  auto m = cls.static_method("boot", 0);
  // SDKs check connectivity before fetching.
  m.invoke_static("android.net.ConnectivityManager", "isConnected");
  m.move_result(0);
  m.if_eqz(0, "offline");
  const auto dest = internal(b, "cache/bdad.jar");
  emit_download(m, url, dest, 1, "bd");
  emit_dex_load_run(m, dest, internal(b, "cache"),
                    "com.baidu.mobads.dynamic.Render", 9, "bd");
  m.label("offline");
  m.return_void();
  m.done();
  b.boot_calls.push_back("com.baidu.mobads.AdView");
}

void add_analytics_sdk(Build& b) {
  b.apk.put(std::string(apk::kAssetsDirPrefix) + "tracker.bin",
            privacy_payload("com.flurry.analytics.dynamic.Collector",
                            b.spec->sdk_leaks));
  auto cls = b.dex.cls("com.flurry.analytics.TrackerCore");
  auto m = cls.static_method("boot", 0);
  const auto dest = internal(b, "cache/tracker.dex");
  emit_copy_asset(m, "tracker.bin", dest, 0, "tk");
  emit_dex_load_run(m, dest, internal(b, "cache"),
                    "com.flurry.analytics.dynamic.Collector", 8, "tk");
  m.done();
  b.boot_calls.push_back("com.flurry.analytics.TrackerCore");
}

void add_own_dex_dcl(Build& b) {
  const auto payload_class = b.man.package + ".plugin.Feature";
  b.apk.put(std::string(apk::kAssetsDirPrefix) + "plugin.bin",
            privacy_payload(payload_class, b.spec->own_leaks));
  auto cls = b.dex.cls(b.man.package + ".core.PluginHost");
  auto m = cls.static_method("boot", 0);
  const auto dest = internal(b, "files/plugin.dex");
  emit_copy_asset(m, "plugin.bin", dest, 0, "pl");
  emit_dex_load_run(m, dest, internal(b, "files"), payload_class, 8, "pl");
  m.done();
  b.boot_calls.push_back(b.man.package + ".core.PluginHost");
}

void add_sdk_native(Build& b) {
  b.apk.put(std::string(apk::kLibDirPrefix) + "armeabi/libengine.so",
            benign_native_lib("libengine", "engineInit",
                              "com.unity3d.player.native.Engine"));
  auto cls = b.dex.cls("com.unity3d.player.NativeBridge");
  cls.native_method("engineInit", 0);
  auto m = cls.static_method("boot", 0);
  m.const_str(0, "engine");
  m.invoke_static("java.lang.System", "loadLibrary", {0});
  m.invoke_static("com.unity3d.player.NativeBridge", "engineInit");
  m.done();
  b.boot_calls.push_back("com.unity3d.player.NativeBridge");
}

void add_own_native(Build& b) {
  b.apk.put(std::string(apk::kLibDirPrefix) + "armeabi/libapp.so",
            benign_native_lib("libapp", "appInit",
                              b.man.package + ".jni.Core"));
  auto cls = b.dex.cls(b.man.package + ".core.NativeHost");
  cls.native_method("appInit", 0);
  auto m = cls.static_method("boot", 0);
  m.const_str(0, "app");
  m.invoke_static("java.lang.System", "loadLibrary", {0});
  m.invoke_static(b.man.package + ".core.NativeHost", "appInit");
  m.done();
  b.boot_calls.push_back(b.man.package + ".core.NativeHost");
}

void add_dead_dcl(Build& b, bool dead_dex, bool dead_native) {
  auto cls = b.dex.cls(b.man.package + ".legacy.UnusedLoader");
  if (dead_dex) {
    auto m = cls.static_method("legacyLoad", 0);
    emit_dex_load_run(m, internal(b, "files/never.dex"),
                      internal(b, "files"), "never.Cls", 0, "dd",
                      /*run=*/false);
    m.done();
  }
  if (dead_native) {
    auto m = cls.static_method("legacyLink", 0);
    m.const_str(0, "never");
    m.invoke_static("java.lang.System", "loadLibrary", {0});
    m.done();
  }
}

void add_malware(Build& b, const MalwarePayloadSpec& payload, Rng& rng) {
  const int index = b.malware_index++;
  const auto tag = support::format("mw%d", index);
  malware::PayloadOptions options;
  options.c2_url = support::format("http://c2-%s.blackhole.example/gate.php",
                                   b.man.package.c_str());
  const auto bytes = malware::generate_payload(payload.family, options, rng);

  if (malware::family_is_native(payload.family)) {
    // Native family: bundled lib, gated loadLibrary + native dispatch.
    const auto soname = support::format("chat%d", index);
    b.apk.put(std::string(apk::kLibDirPrefix) + "armeabi/lib" + soname +
                  ".so",
              bytes);
    auto cls =
        b.dex.cls(support::format("com.hookkit%d.loader.NativeDropper", index));
    if (index == 0) cls.native_method("inject", 0);
    auto m = cls.static_method("boot", 0);
    emit_gates(m, payload.triggers, "skip_" + tag, 0);
    m.const_str(3, soname);
    m.invoke_static("java.lang.System", "loadLibrary", {3});
    if (index == 0) {
      m.invoke_static(
          support::format("com.hookkit%d.loader.NativeDropper", index),
          "inject");
    }
    m.label("skip_" + tag);
    m.return_void();
    m.done();
    b.boot_calls.push_back(
        support::format("com.hookkit%d.loader.NativeDropper", index));
  } else {
    // DEX family: payload hidden as an opaque asset, gated drop + load.
    const auto asset = support::format("upd%d.bin", index);
    b.apk.put(std::string(apk::kAssetsDirPrefix) + asset, bytes);
    const auto payload_class =
        payload.family == malware::Family::SwissCodeMonkeys
            ? "com.swisscodemonkeys.payload.CoreService"
            : "com.airpush.minimob.AdEngine";
    if (payload.family == malware::Family::SwissCodeMonkeys) {
      // Live C2: serves one command, then EOF.
      b.scenario.hosted_urls.emplace_back(options.c2_url,
                                          support::Blob::of_string("sms"));
    }
    auto cls = b.dex.cls(support::format("com.pushcore%d.sdk.Dropper", index));
    auto m = cls.static_method("boot", 0);
    emit_gates(m, payload.triggers, "skip_" + tag, 0);
    const auto dest = internal(b, support::format("cache/%s.dex", tag.c_str()));
    emit_copy_asset(m, asset, dest, 3, tag);
    emit_dex_load_run(m, dest, internal(b, "cache"), payload_class, 11, tag);
    m.label("skip_" + tag);
    m.return_void();
    m.done();
    b.boot_calls.push_back(support::format("com.pushcore%d.sdk.Dropper", index));
  }
}

void add_vuln(Build& b) {
  if (b.spec->vuln == VulnKind::DexExternalStorage) {
    // The developer caches loadable bytecode on world-writable external
    // storage (paper: com.longtukorea.snmg / im_sdk pattern). The cache is
    // reused when present — which is exactly what lets a co-installed app
    // substitute the file between runs.
    const auto payload_class = "com.yayavoice.sdk.dynamic.Voice";
    const auto payload = privacy_payload(payload_class, 0);
    const auto genuine_hash =
        static_cast<std::int64_t>(support::fnv1a64(payload));
    b.apk.put(std::string(apk::kAssetsDirPrefix) + "voice.bin", payload);
    auto cls = b.dex.cls(b.man.package + ".core.VoiceSetup");
    auto m = cls.static_method("boot", 0);
    const auto dest = std::string(os::kExternalStorageDir) +
                      "/im_sdk/jar/yayavoice_for_assets.jar";
    m.new_instance(7, "java.io.File");
    m.const_str(6, dest);
    m.invoke_virtual("java.io.File", "<init>", {7, 6});
    m.invoke_virtual("java.io.File", "exists", {7});
    m.move_result(7);
    m.if_nez(7, "cached_vx");
    emit_copy_asset(m, "voice.bin", dest, 0, "vx");
    m.label("cached_vx");
    if (b.spec->vuln_integrity_check) {
      // Grab'n-Run-style verified loading (Falsina et al.): hash the file
      // and abort unless it matches the hash pinned at build time.
      m.const_str(0, dest);
      m.invoke_static("java.security.MessageDigest", "digest", {0});
      m.move_result(1);
      m.const_int(2, genuine_hash);
      m.cmp_eq(3, 1, 2);
      m.if_eqz(3, "tampered_vx");
    }
    emit_dex_load_run(m, dest, internal(b, "cache"), payload_class, 8, "vx");
    m.label("tampered_vx");
    m.return_void();
    m.done();
    b.boot_calls.push_back(b.man.package + ".core.VoiceSetup");
  } else if (b.spec->vuln == VulnKind::NativeOtherAppInternal) {
    // Blind trust in another developer's runtime: load libCore.so from
    // com.adobe.air's private storage (paper Table IX).
    auto cls = b.dex.cls(b.man.package + ".core.AirBridge");
    cls.native_method("airInit", 0);
    auto m = cls.static_method("boot", 0);
    m.const_str(0, "/data/data/com.adobe.air/lib/libCore.so");
    if (b.spec->vuln_integrity_check) {
      m.invoke_static("java.security.MessageDigest", "digest", {0});
    }
    m.invoke_static("java.lang.System", "load", {0});
    m.invoke_static(b.man.package + ".core.AirBridge", "airInit");
    m.done();
    b.boot_calls.push_back(b.man.package + ".core.AirBridge");

    // Companion runtime app owning the library.
    manifest::Manifest cm;
    cm.package = "com.adobe.air";
    apk::ApkFile companion;
    companion.write_manifest(cm);
    DexBuilder cdex;
    cdex.cls("com.adobe.air.Runtime")
        .method("onCreate", 1)
        .return_void()
        .done();
    companion.write_classes_dex(cdex.build());
    companion.put(std::string(apk::kLibDirPrefix) + "armeabi/libCore.so",
                  benign_native_lib("libCore", "airInit",
                                    "com.adobe.air.native.Core"));
    companion.sign("adobe");
    b.scenario.companion_apks.push_back(
        support::Blob::take(companion.serialize()));
  }
}

void add_reflection(Build& b) {
  const auto helper = b.man.package + ".util.Bridge";
  b.dex.cls(helper).method("ping", 1).const_int(1, 1).ret(1).done();
  auto cls = b.dex.cls(b.man.package + ".core.ReflectBoot");
  auto m = cls.static_method("boot", 0);
  m.const_str(0, helper);
  m.invoke_static("java.lang.Class", "forName", {0});
  m.move_result(1);
  m.invoke_virtual("java.lang.Class", "newInstance", {1});
  m.move_result(2);
  m.const_str(3, "ping");
  m.invoke_virtual("java.lang.Class", "getMethod", {1, 3});
  m.move_result(4);
  m.invoke_virtual("java.lang.reflect.Method", "invoke", {4, 2});
  m.done();
  b.boot_calls.push_back(b.man.package + ".core.ReflectBoot");
}

}  // namespace

GeneratedApp build_app(const AppSpec& spec, Rng& rng) {
  Build b;
  b.spec = &spec;
  b.man.package = spec.package;
  b.man.min_sdk = spec.min_sdk;
  b.man.add_permission(manifest::kInternet);
  if (spec.write_external_permission) {
    b.man.add_permission(manifest::kWriteExternalStorage);
  }
  if ((spec.sdk_leaks | spec.own_leaks) != 0) {
    b.man.add_permission(manifest::kReadPhoneState);
  }

  // Behaviours first (they register boot calls).
  if (spec.ad_sdk) add_ad_sdk(b);
  if (spec.baidu_remote_sdk) add_baidu_sdk(b);
  if (spec.analytics_sdk) add_analytics_sdk(b);
  if (spec.own_dex_dcl) add_own_dex_dcl(b);
  if (spec.sdk_native_dcl) add_sdk_native(b);
  if (spec.own_native_dcl) add_own_native(b);
  if (spec.dead_dex_dcl || spec.dead_native_dcl) {
    add_dead_dcl(b, spec.dead_dex_dcl, spec.dead_native_dcl);
  }
  for (const auto& payload : spec.malware) add_malware(b, payload, rng);
  if (spec.vuln != VulnKind::None) add_vuln(b);
  if (spec.reflection) add_reflection(b);

  // Main activity: boots every behaviour from onCreate, plus benign
  // fuzz-reactive onClick handlers named from the language DB.
  const auto main_class =
      spec.package + "." + camel(pick_word(rng), pick_word(rng));
  {
    auto cls = b.dex.cls(main_class, "android.app.Activity");
    cls.instance_field(pick_word(rng) + "Count");
    auto m = cls.method("onCreate", 1);
    if (spec.crash_on_start) {
      m.const_str(1, "NullPointerException: broken initialization");
      m.throw_str(1);
    } else if (!spec.dcl_on_click) {
      for (const auto& boot : b.boot_calls) {
        m.invoke_static(boot, "boot");
      }
    }
    m.return_void();
    m.done();

    auto clk = cls.method("onClick", 2);
    if (spec.dcl_on_click && !spec.crash_on_start) {
      // Minority pattern: code loading behind a user interaction.
      for (const auto& boot : b.boot_calls) {
        clk.invoke_static(boot, "boot");
      }
    }
    clk.const_int(2, 1);
    clk.cmp_eq(3, 1, 2);
    clk.if_eqz(3, "other");
    clk.const_str(4, "ui");
    clk.invoke_static("android.util.Log", "d", {4, 4});
    clk.label("other");
    clk.return_void();
    clk.done();

    // A couple of dictionary-named helpers so unobfuscated identifier stats
    // look like real code.
    auto helper = cls.method(pick_word(rng) + camel(pick_word(rng), ""), 1);
    helper.const_int(1, 3);
    helper.const_int(2, 4);
    helper.add(3, 1, 2);
    helper.ret(3);
    helper.done();
  }

  if (!spec.no_activity) {
    b.man.components.push_back(
        manifest::Component{manifest::ComponentKind::Activity, main_class,
                            /*launcher=*/true});
  } else {
    b.man.components.push_back(manifest::Component{
        manifest::ComponentKind::Service, main_class, false});
  }

  auto classes = b.dex.build();

  // Obfuscation post-passes.
  if (spec.lexical) {
    classes = obfuscation::rename_identifiers(classes, b.man);
  }
  if (spec.anti_decompilation) {
    obfuscation::poison_anti_decompilation(classes);
  }

  b.apk.write_manifest(b.man);
  b.apk.write_classes_dex(classes);
  if (spec.anti_repackaging && !spec.dex_encryption) {
    obfuscation::plant_anti_repackaging_trap(b.apk);
  }
  b.apk.sign("dev-" + spec.package);

  if (spec.dex_encryption) {
    obfuscation::PackerOptions packer;
    packer.anti_repackaging = spec.anti_repackaging;
    b.apk = obfuscation::pack(b.apk, packer);
  }

  GeneratedApp out;
  out.spec = spec;
  out.apk = support::Blob::take(b.apk.serialize());
  out.scenario = std::move(b.scenario);
  return out;
}

}  // namespace dydroid::appgen
