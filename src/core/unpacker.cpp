#include "core/unpacker.hpp"

#include "analysis/decompiler.hpp"
#include "core/engine.hpp"
#include "obfuscation/detector.hpp"
#include "obfuscation/packer.hpp"
#include "obfuscation/poison.hpp"

namespace dydroid::core {

using support::Result;

Result<UnpackResult> unpack_packed_app(
    std::span<const std::uint8_t> packed_apk, std::uint64_t seed) {
  // One container parse serves the decompiler, the installer and the
  // reassembly below.
  apk::ApkImage image;
  try {
    image = apk::ApkImage::parse(support::Blob::copy_of(packed_apk),
                                 apk::ParseMode::kLenient);
  } catch (const support::ParseError& e) {
    return Result<UnpackResult>::failure(std::string("unpack: decompile: ") +
                                         e.what());
  }
  auto ir = analysis::decompile(image);
  if (!ir.ok()) {
    return Result<UnpackResult>::failure("unpack: " + ir.error());
  }
  if (!obfuscation::detect_dex_encryption(ir.value())) {
    return Result<UnpackResult>::failure(
        "unpack: app does not match the packer pattern");
  }

  // Sandbox run: let the container decrypt and load, intercept the payload.
  os::Device device;
  if (const auto installed = device.install(image); !installed) {
    return Result<UnpackResult>::failure("unpack: " + installed.error());
  }
  auto man = ir.value().manifest;
  support::Rng rng(seed);
  EngineConfig config;
  const auto run = run_app(device, ir.value().classes_dex, man, rng, config);

  // The largest intercepted dex-format payload is the decrypted bytecode
  // (containers may load auxiliary dexes too). A post-decryption crash is
  // tolerable — the dump already happened, as with real unpacking sandboxes.
  const InterceptedBinary* best = nullptr;
  for (const auto& binary : run.binaries) {
    if (binary.kind != CodeKind::Dex) continue;
    if (!dex::looks_like_dex(binary.bytes)) continue;
    if (best == nullptr || binary.bytes.size() > best->bytes.size()) {
      best = &binary;
    }
  }
  if (best == nullptr) {
    if (run.monkey.outcome == monkey::Outcome::kCrash) {
      return Result<UnpackResult>::failure("unpack: app crashed early: " +
                                           run.monkey.crash_message);
    }
    return Result<UnpackResult>::failure(
        "unpack: no dex payload intercepted");
  }

  // Reassemble: restore the payload as classes.dex, drop the container's
  // artifacts, clear android:name.
  UnpackResult result;
  result.payload_path = best->path;
  result.apk = image.file();
  result.apk.put(apk::kClassesDexEntry, best->bytes);
  result.apk.remove(std::string(apk::kAssetsDirPrefix) +
                    std::string(obfuscation::kEncryptedPayloadAsset));
  // Drop any shield stub library entries.
  for (const auto& name : result.apk.entry_names()) {
    if (name.starts_with(apk::kLibDirPrefix) &&
        name.find("shield") != std::string::npos) {
      result.apk.remove(name);
    }
  }
  // Drop the anti-repackaging trap if present so the output is tool-clean.
  result.apk.remove(std::string(obfuscation::kTrapEntry));
  man.application_name.clear();
  result.apk.write_manifest(man);
  result.apk.sign("dydroid-unpacked");
  return result;
}

}  // namespace dydroid::core
