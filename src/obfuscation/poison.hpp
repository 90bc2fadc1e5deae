// Anti-analysis poisons.
//
// Anti-decompilation: a malformed debug_info section that the disassembler
// (baksmali/apktool analogue) must parse and reject while the VM, which
// skips unknown/optional sections, runs the app untouched.
//
// Anti-repackaging: a CRC-trap entry the device installer tolerates but the
// strict repackaging tooling refuses — "crashes apktool" (paper Table II).
#pragma once

#include "apk/apk.hpp"
#include "dex/dexfile.hpp"

namespace dydroid::obfuscation {

/// Name of the trap entry planted by anti-repackaging.
inline constexpr std::string_view kTrapEntry = "assets/.integrity";

/// Append a malformed debug_info extra section to the dex: check_debug_info
/// (dex/disassembler.hpp), and so analysis::decompile, then rejects it.
void poison_anti_decompilation(dex::DexFile& dex);

/// Plant the CRC trap entry in an APK (call before signing).
void plant_anti_repackaging_trap(apk::ApkFile& apk);

}  // namespace dydroid::obfuscation
