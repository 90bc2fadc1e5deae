#include "obfuscation/poison.hpp"

#include "dex/disassembler.hpp"

namespace dydroid::obfuscation {

void poison_anti_decompilation(dex::DexFile& dex) {
  // Non-monotonic pcs: valid-looking, fatal to the strict tooling parser.
  dex.add_extra(dex::ExtraSection{
      std::string(dex::kDebugInfoSection),
      dex::encode_debug_info({{7, 1}, {7, 2}})});
}

void plant_anti_repackaging_trap(apk::ApkFile& apk) {
  apk.put_with_bad_crc(std::string(kTrapEntry),
                       support::to_bytes("\x7f\x00trap"));
}

}  // namespace dydroid::obfuscation
