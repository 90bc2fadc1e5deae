#include "os/device.hpp"

#include <stdexcept>

#include "support/fault.hpp"

namespace dydroid::os {

Device::Device(DeviceConfig config)
    : vfs_(config.api_level, config.storage_capacity_bytes),
      network_(&services_),
      pm_(&vfs_) {
  // Fault-injection site: the measurement device failed to boot / is
  // unavailable (support::FaultInjector). The pipeline's stage guard maps
  // the exception to the app's crash outcome; it never tears down a worker.
  if (support::fault_fire(support::FaultSite::kDeviceBoot)) {
    throw std::runtime_error(
        support::fault_message(support::FaultSite::kDeviceBoot) +
        ": device unavailable");
  }
  // Preinstall the trusted OS-vendor native libraries the DCL logger skips
  // (paper §III-B: "skips the system binaries, such as native libraries in
  // /system/lib").
  const auto sys = Principal::system();
  (void)vfs_.write_file(sys, std::string(kSystemLibDir) + "/libc.so",
                        support::to_bytes("system"));
  (void)vfs_.write_file(sys, std::string(kSystemLibDir) + "/libandroid.so",
                        support::to_bytes("system"));
}

void Scenario::apply(Device& device) const {
  for (const auto& [url, payload] : hosted_urls) {
    device.network().host(url, payload);
  }
  for (const auto& apk_bytes : companion_apks) {
    (void)device.install(apk::ApkFile::deserialize(apk_bytes));
  }
}

void Scenario::encode(support::ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(hosted_urls.size()));
  for (const auto& [url, payload] : hosted_urls) {
    w.str(url);
    w.blob(payload);
  }
  w.u32(static_cast<std::uint32_t>(companion_apks.size()));
  for (const auto& apk_bytes : companion_apks) w.blob(apk_bytes);
}

}  // namespace dydroid::os
