#include "os/services.hpp"

#include <array>

namespace dydroid::os {

namespace {

struct ProviderRow {
  std::string_view uri;
  std::string_view row;
};

constexpr std::array<ProviderRow, 10> kProviderRows = {{
    {kUriContacts, "Alice;+1555000001"},
    {kUriCalendar, "2016-11-12;dentist"},
    {kUriCallLog, "+1555000001;32s"},
    {kUriBrowser, "https://example.com"},
    {kUriAudio, "/mnt/sdcard/music/track01.mp3"},
    {kUriImages, "/mnt/sdcard/DCIM/img001.jpg"},
    {kUriVideo, "/mnt/sdcard/DCIM/vid001.mp4"},
    {kUriSettings, "adb_enabled=0"},
    {kUriSms, "+1555000002;hello"},
    {kUriMms, "+1555000002;photo"},
}};

}  // namespace

std::string_view SystemServices::query_provider(std::string_view uri) {
  for (const auto& [provider, row] : kProviderRows) {
    if (provider == uri) return row;
  }
  return {};
}

}  // namespace dydroid::os
