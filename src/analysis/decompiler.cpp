#include "analysis/decompiler.hpp"

#include "dex/disassembler.hpp"
#include "support/blob.hpp"

namespace dydroid::analysis {

using support::Result;

Result<Ir> decompile(const apk::ApkImage& image) {
  Ir ir;
  try {
    ir.manifest = image.file().read_manifest();
    ir.entries = image.file().entry_names();
    if (auto classes = image.file().read_classes_dex()) {
      // The tooling-grade strictness anti-decompilation packers target:
      // every debug_info extra must parse. The deserialize above already
      // validated the code, so disassembly's own validate is not repeated.
      dex::check_debug_info(*classes);
      ir.classes_dex =
          std::make_shared<const dex::DexFile>(*std::move(classes));
    }
  } catch (const support::ParseError& e) {
    return Result<Ir>::failure(std::string("decompile: ") + e.what());
  }
  return ir;
}

Result<Ir> decompile(std::span<const std::uint8_t> apk_bytes) {
  apk::ApkImage image;
  try {
    image = apk::ApkImage::parse(support::Blob::copy_of(apk_bytes),
                                 apk::ParseMode::kLenient);
  } catch (const support::ParseError& e) {
    return Result<Ir>::failure(std::string("decompile: ") + e.what());
  }
  return decompile(image);
}

bool has_local_bytecode_store(const Ir& ir) {
  for (const auto& name : ir.entries) {
    if (name == apk::kClassesDexEntry || name == apk::kManifestEntry) continue;
    if (name.starts_with(apk::kAssetsDirPrefix)) return true;
    if (name.ends_with(".dex") || name.ends_with(".jar") ||
        name.ends_with(".zip") || name.ends_with(".apk") ||
        name.ends_with(".odex")) {
      return true;
    }
  }
  return false;
}

}  // namespace dydroid::analysis
