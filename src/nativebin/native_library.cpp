#include "nativebin/native_library.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/fault.hpp"

namespace dydroid::nativebin {

using support::ParseError;

std::optional<NativeLibrary::Symbol> NativeLibrary::find_symbol(
    std::string_view name) const {
  for (const auto& cls : code_.classes()) {
    for (const auto& m : cls.methods) {
      if (m.is_static() && m.name == name) return Symbol{&cls, &m};
    }
  }
  return std::nullopt;
}

support::Bytes NativeLibrary::serialize() const {
  support::ByteWriter w;
  w.raw(support::to_bytes(kMagic));
  w.str(soname_);
  w.u8(static_cast<std::uint8_t>(arch_));
  w.blob(code_.serialize());
  return w.take();
}

NativeLibrary NativeLibrary::deserialize(std::span<const std::uint8_t> data) {
  // Fault-injection site: corrupt .so payload (support::FaultInjector).
  if (support::fault_fire(support::FaultSite::kNativeLoad)) {
    throw ParseError(support::fault_message(support::FaultSite::kNativeLoad));
  }
  support::ByteReader r(data);
  if (support::as_chars(r.view(kMagic.size())) != kMagic) {
    throw ParseError("bad SimNative magic");
  }
  NativeLibrary lib;
  lib.soname_ = r.str();
  const auto raw_arch = r.u8();
  if (raw_arch > static_cast<std::uint8_t>(Arch::X86)) {
    throw ParseError("bad SimNative arch");
  }
  lib.arch_ = static_cast<Arch>(raw_arch);
  lib.code_ = dex::DexFile::deserialize(r.view(r.u32()));
  return lib;
}

bool looks_like_native(std::span<const std::uint8_t> data) {
  const auto magic = NativeLibrary::kMagic;
  if (data.size() < magic.size()) return false;
  return std::equal(magic.begin(), magic.end(), data.begin(),
                    [](char c, std::uint8_t b) {
                      return static_cast<std::uint8_t>(c) == b;
                    });
}

std::string map_library_name(std::string_view name) {
  std::string out = "lib";
  out += name;
  out += ".so";
  return out;
}

}  // namespace dydroid::nativebin
