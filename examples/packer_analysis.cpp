// App hardening with DEX encryption (paper §III-D), from both sides.
//
// Obfuscator side: a smart-TV remote app is packed Bangcle-style — its
// classes.dex is encrypted into an asset, a stub container + native decrypt
// library are injected, and the manifest's android:name is repointed.
// Static reverse engineering now sees only the stub.
//
// Analyst side: DyDroid's rules recognize the packer pattern, and the
// dynamic phase intercepts the DECRYPTED original bytecode the moment the
// container loads it — the packer is defeated at runtime.
#include <cstdio>

#include "analysis/rewriter.hpp"
#include "appgen/generator.hpp"
#include "core/pipeline.hpp"
#include "dex/disassembler.hpp"
#include "obfuscation/packer.hpp"

using namespace dydroid;

int main() {
  // The app to protect: a TV-remote with a proprietary pairing protocol.
  appgen::AppSpec spec;
  spec.package = "com.smarttv.remotecontrol";
  spec.category = "Entertainment";
  support::Rng rng(31337);
  auto plain = appgen::build_app(spec, rng);
  const auto original = apk::ApkFile::deserialize(plain.apk);
  const auto original_dex = *original.get(apk::kClassesDexEntry);

  // ---- pack it -------------------------------------------------------------
  obfuscation::PackerOptions packer;
  packer.anti_repackaging = true;
  const auto packed = obfuscation::pack(original, packer);
  std::printf("packed %s:\n", spec.package.c_str());
  for (const auto& entry : packed.entry_names()) {
    std::printf("  %-40s %zu bytes\n", entry.c_str(),
                packed.get(entry)->size());
  }

  // Static view: the stub hides everything.
  const auto stub = *packed.read_classes_dex();
  std::printf("\nstub disassembly (all an attacker sees statically):\n%s\n",
              dex::disassemble(stub).c_str());

  // ---- analyze it ----------------------------------------------------------
  core::DyDroid pipeline;
  const auto report = pipeline.analyze(packed.serialize(), 3);
  std::printf("obfuscation analysis: dex_encryption=%s (rules of §III-D)\n",
              report.obfuscation.dex_encryption ? "DETECTED" : "missed");
  std::printf("dynamic status: %s\n",
              std::string(core::dynamic_status_name(report.status)).c_str());

  for (const auto& binary : report.binaries) {
    if (binary.binary.path.find(".shield") == std::string::npos) continue;
    std::printf("\nintercepted decrypted payload: %s (%zu bytes)\n",
                binary.binary.path.c_str(), binary.binary.bytes.size());
    std::printf("  byte-identical to the original classes.dex: %s\n",
                binary.binary.bytes == original_dex ? "YES" : "no");
    std::printf("  call site: %s (%s)\n",
                binary.binary.call_site_class.c_str(),
                std::string(core::entity_name(binary.binary.entity)).c_str());
  }

  // Bonus: the anti-repackaging trap crashes strict tooling.
  const auto rewritten = analysis::rewrite_with_permission(
      apk::ApkImage::from_file(packed), manifest::kWriteExternalStorage);
  std::printf("\nanti-repackaging: strict repacker says: %s\n",
              rewritten.ok() ? "(rewrote fine?)" : rewritten.error().c_str());
  return 0;
}
