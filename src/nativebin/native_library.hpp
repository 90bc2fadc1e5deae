// SimNative: the ELF .so analogue. A native library carries
// architecture-tagged function bodies in the SimISA encoding plus an export
// table. The VM links exported symbols to `native`-flagged dex methods; the
// MAIL translator (MiniDroidNative) lifts the same bodies for malware
// analysis — matching the paper's claim that DroidNative handles binaries
// "compiled for various platforms, such as ARM and x86".
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "dex/dexfile.hpp"

namespace dydroid::nativebin {

enum class Arch : std::uint8_t { Arm = 0, X86 = 1 };

class NativeLibrary {
 public:
  NativeLibrary() = default;
  NativeLibrary(std::string soname, Arch arch)
      : soname_(std::move(soname)), arch_(arch) {}

  [[nodiscard]] const std::string& soname() const { return soname_; }
  [[nodiscard]] Arch arch() const { return arch_; }

  /// Function bodies live as static methods of synthetic classes inside an
  /// embedded SimDex pool; every static method is an exported symbol.
  [[nodiscard]] dex::DexFile& code() { return code_; }
  [[nodiscard]] const dex::DexFile& code() const { return code_; }

  /// Find an exported function by symbol (method) name.
  struct Symbol {
    const dex::ClassDef* cls = nullptr;
    const dex::Method* method = nullptr;
  };
  [[nodiscard]] std::optional<Symbol> find_symbol(
      std::string_view name) const;

  [[nodiscard]] support::Bytes serialize() const;
  static NativeLibrary deserialize(std::span<const std::uint8_t> data);

  static constexpr std::string_view kMagic = "SNAT1";

 private:
  std::string soname_;
  Arch arch_ = Arch::Arm;
  dex::DexFile code_;
};

/// True if `data` begins with the SimNative magic.
bool looks_like_native(std::span<const std::uint8_t> data);

/// Map a library name to its file name, mirroring
/// java.lang.System.mapLibraryName: "foo" -> "libfoo.so".
std::string map_library_name(std::string_view name);

}  // namespace dydroid::nativebin
