// Package manager: installs SimApks onto the device, owns the package
// registry queried by PackageManager framework APIs (paper Table X
// "usage pattern": installed applications / installed packages).
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "apk/apk.hpp"
#include "support/error.hpp"

namespace dydroid::os {

class Vfs;

class PackageManager {
 public:
  explicit PackageManager(Vfs* vfs) : vfs_(vfs) {}

  /// Install an APK image: registers the package, stores the image's
  /// serialized Blob under /data/app *without re-serializing*, creates the
  /// app's private data dir marker, and extracts bundled native libraries
  /// (as zero-copy entry views) into /data/data/<pkg>/lib/.
  support::Status install(const apk::ApkImage& image);
  /// Install from a parsed file only: serializes once, then installs.
  support::Status install(const apk::ApkFile& apk);

  [[nodiscard]] bool is_installed(std::string_view pkg) const {
    return packages_.contains(pkg);
  }
  [[nodiscard]] std::vector<std::string> installed_packages() const;
  [[nodiscard]] std::size_t count() const { return packages_.size(); }

 private:
  Vfs* vfs_;
  std::set<std::string, std::less<>> packages_;
};

}  // namespace dydroid::os
