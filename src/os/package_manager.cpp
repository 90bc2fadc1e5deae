#include "os/package_manager.hpp"

#include "os/vfs.hpp"
#include "support/fault.hpp"
#include "support/strings.hpp"

namespace dydroid::os {

using support::Status;

Status PackageManager::install(const apk::ApkFile& apk) {
  // No shared image available: serialize once and install that.
  return install(apk::ApkImage::from_file(apk));
}

Status PackageManager::install(const apk::ApkImage& image) {
  // Fault-injection site: install timeout / installer failure
  // (support::FaultInjector).
  if (support::fault_fire(support::FaultSite::kDeviceInstall)) {
    return Status::failure(
        support::fault_message(support::FaultSite::kDeviceInstall) +
        ": install timed out");
  }
  const apk::ApkFile& apk = image.file();
  manifest::Manifest m;
  try {
    m = apk.read_manifest();
  } catch (const support::ParseError& e) {
    return Status::failure(std::string("install: ") + e.what());
  }
  if (m.package.empty()) return Status::failure("install: empty package");

  // The image's serialized Blob goes straight into the VFS at
  // /data/app/<pkg>.apk — a refcount bump, not a re-serialize.
  const auto sys = Principal::system();
  const auto apk_path = std::string(kAppDir) + "/" + m.package + ".apk";
  if (auto s = vfs_->write_file(sys, apk_path, image.bytes()); !s) {
    return s;
  }
  // Private data dir marker so the dir "exists".
  if (auto s = vfs_->write_file(
          sys, internal_storage_dir(m.package) + "/.installed",
          support::to_bytes(m.package));
      !s) {
    return s;
  }
  // Extract bundled native libraries, as the installer does for lib/<abi>/.
  for (const auto& name : apk.entry_names()) {
    if (name.starts_with(apk::kLibDirPrefix)) {
      const auto base = name.substr(name.rfind('/') + 1);
      const auto dest = internal_storage_dir(m.package) + "/lib/" + base;
      if (auto s = vfs_->write_file(sys, dest, *apk.get(name)); !s) return s;
    }
  }
  packages_.insert(std::move(m.package));
  return Status();
}

std::vector<std::string> PackageManager::installed_packages() const {
  return {packages_.begin(), packages_.end()};
}

}  // namespace dydroid::os
