// SimDevice: the composed measurement device — filesystem, network, system
// services and package manager, equivalent to the paper's Samsung Galaxy
// Nexus running the instrumented Android 4.3.1 image.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "os/network.hpp"
#include "os/package_manager.hpp"
#include "os/services.hpp"
#include "os/vfs.hpp"
#include "support/blob.hpp"
#include "support/bytes.hpp"

namespace dydroid::os {

struct DeviceConfig {
  /// Android 4.3.1 = API level 18, the paper's measurement image.
  int api_level = 18;
  /// 0 = unlimited storage. The execution engine recovers from full-storage
  /// errors automatically (paper §I: "device storage running out").
  std::uint64_t storage_capacity_bytes = 0;
};

class Device {
 public:
  explicit Device(DeviceConfig config = {});

  [[nodiscard]] Vfs& vfs() { return vfs_; }
  [[nodiscard]] const Vfs& vfs() const { return vfs_; }
  [[nodiscard]] SystemServices& services() { return services_; }
  [[nodiscard]] const SystemServices& services() const { return services_; }
  [[nodiscard]] Network& network() { return network_; }
  [[nodiscard]] PackageManager& package_manager() { return pm_; }
  [[nodiscard]] const PackageManager& package_manager() const { return pm_; }

  /// Install an app package (shared parsed image — no re-serialize).
  support::Status install(const apk::ApkImage& image) {
    return pm_.install(image);
  }
  /// Install from a parsed file only (serializes once).
  support::Status install(const apk::ApkFile& apk) { return pm_.install(apk); }

 private:
  Vfs vfs_;
  SystemServices services_;
  Network network_;
  PackageManager pm_;
};

/// An app's surroundings on the device (paper §III-B, Table V; Table IX):
/// the servers that host its remote payloads and the companion packages
/// installed beside it. Plain data, so a cache key can digest it and a
/// job can carry it; the bytes are refcounted Blobs, so copying a Scenario
/// never duplicates them.
struct Scenario {
  std::vector<std::pair<std::string, support::Blob>> hosted_urls;
  std::vector<support::Blob> companion_apks;

  /// True when the scenario hosts or installs anything.
  explicit operator bool() const {
    return !hosted_urls.empty() || !companion_apks.empty();
  }

  /// Host every URL on the device's network and install every companion.
  /// Throws support::ParseError for a companion that is not a package.
  void apply(Device& device) const;

  /// The canonical encoding of everything apply() reads: each list's
  /// count, then its length-prefixed entries. A field added here must be
  /// added to both, so a cache key never goes blind to it.
  void encode(support::ByteWriter& w) const;
};

}  // namespace dydroid::os
