// Smali-like text disassembler for SimDex — the baksmali analogue.
//
// Deliberately stricter than the VM: it parses the optional "debug_info"
// extra section (instruction index -> source line), which the VM ignores.
// Malformed debug info therefore crashes the *tooling* while leaving the app
// runnable — the mechanism real anti-decompilation packers exploit against
// apktool (paper §III-D).
#pragma once

#include <string>

#include "dex/dexfile.hpp"

namespace dydroid::dex {

/// Parsed debug-info entry (see ExtraSection "debug_info").
struct DebugLine {
  std::uint32_t pc = 0;
  std::uint32_t line = 0;
};

/// Disassemble to smali-like text. Throws support::ParseError if the file's
/// debug_info section is malformed (anti-decompilation).
std::string disassemble(const DexFile& dex);

/// The disassembler's debug_info strictness without the text: walks every
/// debug_info extra and builds nothing. Throws support::ParseError if entries
/// are truncated, pcs are not strictly increasing or bytes trail the entries
/// (anti-decompilation poison).
void check_debug_info(const DexFile& dex);

/// Name of the debug-info extra section.
inline constexpr std::string_view kDebugInfoSection = "debug_info";

/// Encode a debug_info section body (pairs of u32 pc, u32 line; pcs must be
/// strictly increasing and in range for the method count check).
support::Bytes encode_debug_info(const std::vector<DebugLine>& lines);

}  // namespace dydroid::dex
