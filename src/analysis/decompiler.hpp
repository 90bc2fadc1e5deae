// Decompiler: the baksmali/apktool front-end of Figure 1. Unpacks a SimApk
// and produces the intermediate representation (manifest + parsed dex +
// file table) consumed by the static filter and the obfuscation analyzer.
//
// Decompilation intentionally inherits the tooling's strictness: a poisoned
// debug_info section (anti-decompilation) fails the disassembler's check,
// and the whole app is recorded as "failed reverse engineering" — the
// paper's 54 apps ("The decompiler crashes and does not generate the smali
// code"). Nothing in the pipeline reads smali text, so none is built here;
// `dydroid disasm` prints it with dex::disassemble.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apk/apk.hpp"
#include "dex/dexfile.hpp"
#include "manifest/manifest.hpp"
#include "support/error.hpp"

namespace dydroid::analysis {

/// Decompiled intermediate representation of one app.
struct Ir {
  manifest::Manifest manifest;
  /// The app's one parse of classes.dex, shared with the VM that runs it;
  /// null if no classes.dex entry.
  std::shared_ptr<const dex::DexFile> classes_dex;
  std::vector<std::string> entries;  // package file table
};

/// Decompile an already-parsed APK image (the pipeline path — no re-parse).
/// Fails (like apktool/baksmali) on malformed manifests/bytecode and on
/// anti-decompilation-poisoned dex.
support::Result<Ir> decompile(const apk::ApkImage& image);

/// Decompile from raw bytes: parses the container first (one parse), then
/// delegates. `dydroid disasm` reads its input this way.
support::Result<Ir> decompile(std::span<const std::uint8_t> apk_bytes);

/// True if the IR contains a locally packed file whose format can store
/// bytecode (assets payloads, extra dex/jar entries) — obfuscation rule 2's
/// second clause.
bool has_local_bytecode_store(const Ir& ir);

}  // namespace dydroid::analysis
