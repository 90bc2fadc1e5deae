// App specifications: the ground-truth blueprint of one synthetic
// marketplace app. The generator compiles a spec into a runnable SimApk (+
// the scenario: remote servers, companion apps); the benches then verify
// that the DyDroid pipeline *recovers* the spec'd behaviours from the
// binaries alone.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "malware/families.hpp"
#include "os/device.hpp"
#include "privacy/sources.hpp"
#include "support/blob.hpp"

namespace dydroid::appgen {

/// Store metadata (paper Table III).
struct Popularity {
  std::int64_t downloads = 0;
  std::int64_t rating_count = 0;
  double avg_rating = 0.0;
};

/// Environment gate applied around a malicious load (paper Table VIII).
enum class MalwareTrigger {
  SystemTime,    // skip when now < release date (review-time evasion)
  AirplaneMode,  // skip when airplane mode is on (sandbox heuristic)
  Connectivity,  // skip when the Internet is unreachable
  Location,      // skip when location service is off
};

/// One malicious payload file carried by an app.
struct MalwarePayloadSpec {
  malware::Family family = malware::Family::SwissCodeMonkeys;
  std::vector<MalwareTrigger> triggers;
};

enum class VulnKind {
  None,
  DexExternalStorage,      // caches loadable bytecode on /mnt/sdcard
  NativeOtherAppInternal,  // System.load from another app's private dir
};

struct AppSpec {
  std::string package;
  std::string category;  // Play store category
  Popularity popularity;
  int min_sdk = 19;
  bool write_external_permission = true;  // else DyDroid must rewrite

  // --- DCL behaviours -------------------------------------------------------
  bool ad_sdk = false;             // Google-Ads-like temp-file dex loading
  bool baidu_remote_sdk = false;   // remote-fetch SDK (policy violation)
  bool analytics_sdk = false;      // 3rd-party SDK loading a local dex
  bool own_dex_dcl = false;        // developer's own DexClassLoader
  bool sdk_native_dcl = false;     // 3rd-party SDK loads bundled .so
  bool own_native_dcl = false;     // developer loads bundled .so
  /// DCL code present but never reached at runtime (dead code — the gap
  /// between Table II "exercised" and "intercepted").
  bool dead_dex_dcl = false;
  bool dead_native_dcl = false;
  /// Fire the DCL behaviours from a UI click handler instead of onCreate
  /// (the minority pattern; most SDKs load at launch, §V-C).
  bool dcl_on_click = false;

  // --- payload privacy (leaks living in the *loaded* code, Table X) --------
  privacy::TaintMask sdk_leaks = 0;  // leaked by third-party payload classes
  privacy::TaintMask own_leaks = 0;  // leaked by developer payload classes

  // --- malware (Table VII/VIII) ---------------------------------------------
  std::vector<MalwarePayloadSpec> malware;

  // --- vulnerability (Table IX) ----------------------------------------------
  VulnKind vuln = VulnKind::None;
  bool vuln_integrity_check = false;  // hashes the file first -> not vulnerable

  // --- obfuscation (Table VI / Fig. 3) ---------------------------------------
  bool lexical = false;
  bool reflection = false;
  bool dex_encryption = false;
  bool anti_decompilation = false;
  bool anti_repackaging = false;

  // --- pathologies (Table II failure rows) -----------------------------------
  bool crash_on_start = false;
  bool no_activity = false;

  [[nodiscard]] bool any_dex_dcl_code() const {
    return ad_sdk || baidu_remote_sdk || analytics_sdk || own_dex_dcl ||
           dead_dex_dcl || dex_encryption ||
           vuln == VulnKind::DexExternalStorage || has_dex_malware();
  }
  [[nodiscard]] bool any_native_code() const {
    return sdk_native_dcl || own_native_dcl || dead_native_dcl ||
           dex_encryption || vuln == VulnKind::NativeOtherAppInternal ||
           has_native_malware();
  }
  [[nodiscard]] bool has_dex_malware() const;
  [[nodiscard]] bool has_native_malware() const;
};

struct GeneratedApp {
  AppSpec spec;
  support::Blob apk;  // serialized package (shared, immutable)
  os::Scenario scenario;  // the device surroundings it runs in
};

}  // namespace dydroid::appgen
