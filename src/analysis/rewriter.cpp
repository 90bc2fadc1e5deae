#include "analysis/rewriter.hpp"

#include "apk/apk.hpp"
#include "support/fault.hpp"

namespace dydroid::analysis {

using support::Result;

Result<apk::ApkImage> rewrite_with_permission(const apk::ApkImage& image,
                                              std::string_view permission) {
  // Fault-injection site: repack/apktool failure — the paper's Table II
  // "Rewriting failure" row (support::FaultInjector).
  if (support::fault_fire(support::FaultSite::kRewriteRepack)) {
    return Result<apk::ApkImage>::failure(
        support::fault_message(support::FaultSite::kRewriteRepack));
  }
  // Strict-mode verification without the strict re-parse: the shared parse
  // already indexed every entry, so the CRC sweep over the file table trips
  // the same anti-repackaging traps with the same message a strict
  // ApkFile::deserialize of these bytes would produce.
  if (const auto bad = image.file().first_crc_mismatch()) {
    return Result<apk::ApkImage>::failure("rewrite: apk entry CRC mismatch: " +
                                          *bad);
  }
  apk::ApkFile pkg = image.file();  // cheap: entries are refcounted views
  try {
    auto man = pkg.read_manifest();
    man.add_permission(permission);
    pkg.write_manifest(man);
  } catch (const support::ParseError& e) {
    return Result<apk::ApkImage>::failure(std::string("rewrite: ") + e.what());
  }
  pkg.sign(kResignKey);
  return apk::ApkImage::from_file(std::move(pkg));
}

}  // namespace dydroid::analysis
