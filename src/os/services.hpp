// Simulated system services: clock, connectivity (airplane mode / WiFi),
// location, device & user identifiers, and content-provider data.
//
// These are the runtime-environment knobs the paper's Table VIII varies to
// expose environment-gated malware (system time before release date,
// airplane mode with/without WiFi, location off).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dydroid::os {

/// Content-provider URIs (paper Table X "Content provider" category).
inline constexpr std::string_view kUriContacts = "content://contacts";
inline constexpr std::string_view kUriCalendar = "content://calendar";
inline constexpr std::string_view kUriCallLog = "content://call_log";
inline constexpr std::string_view kUriBrowser = "content://browser/bookmarks";
inline constexpr std::string_view kUriAudio = "content://media/audio";
inline constexpr std::string_view kUriImages = "content://media/images";
inline constexpr std::string_view kUriVideo = "content://media/video";
inline constexpr std::string_view kUriSettings = "content://settings";
inline constexpr std::string_view kUriMms = "content://mms";
inline constexpr std::string_view kUriSms = "content://sms";

class SystemServices {
 public:
  // --- clock ---
  [[nodiscard]] std::int64_t current_time_ms() const { return now_ms_; }
  void set_time_ms(std::int64_t t) { now_ms_ = t; }
  void advance_ms(std::int64_t delta) { now_ms_ += delta; }

  // --- connectivity ---
  [[nodiscard]] bool airplane_mode() const { return airplane_; }
  void set_airplane_mode(bool on) { airplane_ = on; }
  [[nodiscard]] bool wifi_enabled() const { return wifi_; }
  void set_wifi_enabled(bool on) { wifi_ = on; }
  /// True when the device can reach the Internet: WiFi overrides airplane
  /// mode (Table VIII "Airplane mode/WiFi ON" still has connectivity).
  [[nodiscard]] bool has_connectivity() const {
    return !airplane_ || wifi_;
  }

  // --- location ---
  [[nodiscard]] bool location_enabled() const { return location_; }
  void set_location_enabled(bool on) { location_ = on; }
  /// Last known location as "lat,lng"; empty string if the service is off.
  [[nodiscard]] std::string last_known_location() const {
    return location_ ? location_fix_ : std::string();
  }

  // --- identifiers (paper Table X: phone identity / user identity) ---
  [[nodiscard]] const std::string& imei() const { return imei_; }
  [[nodiscard]] const std::string& imsi() const { return imsi_; }
  [[nodiscard]] const std::string& iccid() const { return iccid_; }
  [[nodiscard]] const std::string& line1_number() const { return line1_; }
  [[nodiscard]] const std::vector<std::string>& accounts() const {
    return accounts_;
  }

  // --- content providers ---
  /// The row a provider URI returns, or "" for a URI no provider serves.
  /// Every device serves the same constant rows (opaque strings; privacy
  /// analysis only needs that reads return provider-tagged data).
  [[nodiscard]] static std::string_view query_provider(std::string_view uri);

 private:
  std::int64_t now_ms_ = 1'478'000'000'000;  // ~Nov 2016, the crawl date
  bool airplane_ = false;
  bool wifi_ = true;
  bool location_ = true;
  std::string location_fix_ = "42.0565,-87.6753";  // Evanston, IL
  std::string imei_ = "356938035643809";
  std::string imsi_ = "310260000000000";
  std::string iccid_ = "89014103211118510720";
  std::string line1_ = "+18475551212";
  std::vector<std::string> accounts_ = {"user@example.com"};
};

}  // namespace dydroid::os
