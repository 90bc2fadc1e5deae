// SimDex container: classes + interned string pool, with a binary
// (de)serializer. This is the unit of dynamic code loading — the payload of
// `classes.dex`, of dynamically loaded .dex/.jar files, and (wrapped in
// SimNative) of native libraries.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dex/instruction.hpp"
#include "support/bytes.hpp"

namespace dydroid::dex {

/// Method access/kind flags.
enum MethodFlags : std::uint32_t {
  kStatic = 1u << 0,
  kPublic = 1u << 1,
  kNative = 1u << 2,       // body lives in a loaded SimNative library
  kConstructor = 1u << 3,  // "<init>"
};

struct Method {
  std::string name;
  std::uint32_t flags = kPublic;
  std::uint16_t num_params = 0;     // includes `this` for instance methods
  std::uint16_t num_registers = 0;  // total register file size (>= params)
  std::vector<Instruction> code;    // empty for native methods

  [[nodiscard]] bool is_static() const { return (flags & kStatic) != 0; }
  [[nodiscard]] bool is_native() const { return (flags & kNative) != 0; }
};

struct ClassDef {
  std::string name;        // fully qualified, e.g. "com.example.app.Main"
  std::string super_name;  // "" for root classes
  std::vector<std::string> instance_fields;
  std::vector<std::string> static_fields;
  std::vector<Method> methods;

  [[nodiscard]] const Method* find_method(std::string_view method_name) const;
};

/// Named opaque side-section. The VM and deserializer skip sections they do
/// not understand (forward compatibility); the disassembler attempts to parse
/// known ones — which is exactly the asymmetry anti-decompilation tooling
/// exploits (see obfuscation/anti_decompilation.hpp).
struct ExtraSection {
  std::string name;
  support::Bytes data;
};

class DexFile {
 public:
  /// Intern a string, returning its pool index.
  std::uint32_t intern(std::string_view s);
  [[nodiscard]] const std::string& string_at(std::uint32_t idx) const;

  [[nodiscard]] const std::vector<ClassDef>& classes() const {
    return classes_;
  }
  [[nodiscard]] std::vector<ClassDef>& classes() { return classes_; }
  [[nodiscard]] const ClassDef* find_class(std::string_view name) const;
  ClassDef& add_class(ClassDef cls);

  [[nodiscard]] const std::vector<ExtraSection>& extras() const {
    return extras_;
  }
  void add_extra(ExtraSection extra) { extras_.push_back(std::move(extra)); }

  /// Serialize to the SDEX binary format.
  [[nodiscard]] support::Bytes serialize() const;
  /// Parse; throws support::ParseError on malformed input. Feeds the
  /// `pipeline.dex_parses` counter.
  static DexFile deserialize(std::span<const std::uint8_t> data);

  /// Validate internal consistency (string indices, branch targets, register
  /// numbers). Returns an error description, or nullopt if well-formed.
  [[nodiscard]] std::optional<std::string> validate() const;

  /// Magic bytes at the front of every serialized SimDex file.
  static constexpr std::string_view kMagic = "SDEX1";

 private:
  std::vector<std::string> strings_;
  /// string → first pool index; built by the first intern() of a parsed
  /// file (deserialize leaves it empty).
  std::unordered_map<std::string, std::uint32_t> index_;
  std::vector<ClassDef> classes_;
  std::vector<ExtraSection> extras_;
};

/// True if `data` begins with the SimDex magic.
bool looks_like_dex(std::span<const std::uint8_t> data);

}  // namespace dydroid::dex
