// Fluent assembler for SimDex bytecode — the `dx` analogue. AppGen, malware
// family generators and the obfuscators all emit code through this API.
//
//   DexBuilder dex;
//   auto cls = dex.cls("com.example.Main", "android.app.Activity");
//   auto m = cls.method("onCreate", /*params=*/1, /*registers=*/6);
//   m.const_str(1, "http://example.com/payload.dex");
//   m.new_instance(2, "java.net.URL");
//   m.invoke_virtual("java.net.URL", "<init>", {2, 1});
//   ...
//   m.return_void();
//
// Branches use string labels resolved when the method is finalized (on
// MethodBuilder destruction or explicit done()).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dex/dexfile.hpp"

namespace dydroid::dex {

class DexBuilder;
class ClassBuilder;

/// Builds one method body. Registers are caller-chosen indices; the builder
/// tracks the max used register and sizes the register file automatically.
class MethodBuilder {
 public:
  MethodBuilder(const MethodBuilder&) = delete;
  MethodBuilder& operator=(const MethodBuilder&) = delete;
  ~MethodBuilder();

  MethodBuilder& const_int(std::uint16_t dst, std::int64_t value);
  MethodBuilder& const_str(std::uint16_t dst, std::string_view value);
  MethodBuilder& move(std::uint16_t dst, std::uint16_t src);
  MethodBuilder& move_result(std::uint16_t dst);
  MethodBuilder& add(std::uint16_t dst, std::uint16_t lhs, std::uint16_t rhs);
  MethodBuilder& sub(std::uint16_t dst, std::uint16_t lhs, std::uint16_t rhs);
  MethodBuilder& mul(std::uint16_t dst, std::uint16_t lhs, std::uint16_t rhs);
  MethodBuilder& div(std::uint16_t dst, std::uint16_t lhs, std::uint16_t rhs);
  MethodBuilder& rem(std::uint16_t dst, std::uint16_t lhs, std::uint16_t rhs);
  MethodBuilder& concat(std::uint16_t dst, std::uint16_t lhs, std::uint16_t rhs);
  MethodBuilder& cmp_eq(std::uint16_t dst, std::uint16_t lhs, std::uint16_t rhs);
  MethodBuilder& cmp_lt(std::uint16_t dst, std::uint16_t lhs, std::uint16_t rhs);
  MethodBuilder& if_eqz(std::uint16_t reg, std::string_view label);
  MethodBuilder& if_nez(std::uint16_t reg, std::string_view label);
  MethodBuilder& jump(std::string_view label);
  MethodBuilder& label(std::string_view name);
  MethodBuilder& new_instance(std::uint16_t dst, std::string_view class_name);
  MethodBuilder& invoke_static(std::string_view class_name,
                               std::string_view method_name,
                               std::initializer_list<std::uint16_t> args = {});
  MethodBuilder& invoke_virtual(std::string_view class_name,
                                std::string_view method_name,
                                std::initializer_list<std::uint16_t> args);
  MethodBuilder& iget(std::uint16_t dst, std::uint16_t obj,
                      std::string_view field);
  MethodBuilder& iput(std::uint16_t src, std::uint16_t obj,
                      std::string_view field);
  MethodBuilder& sget(std::uint16_t dst, std::string_view class_name,
                      std::string_view field);
  MethodBuilder& sput(std::uint16_t src, std::string_view class_name,
                      std::string_view field);
  MethodBuilder& ret(std::uint16_t reg);
  MethodBuilder& return_void();
  MethodBuilder& throw_str(std::uint16_t reg);
  /// Enter a guarded region: on exception, `dst` receives the message and
  /// control jumps to `handler_label`.
  MethodBuilder& try_enter(std::uint16_t dst, std::string_view handler_label);
  /// Leave the innermost guarded region.
  MethodBuilder& try_exit();
  MethodBuilder& nop();

  /// Append a raw instruction (used by obfuscators / tests).
  MethodBuilder& emit(Instruction ins);

  /// Resolve labels and commit the method into its class. Idempotent;
  /// called automatically from the destructor.
  void done();

 private:
  friend class ClassBuilder;
  MethodBuilder(DexBuilder* dex, std::size_t cls_idx, std::size_t method_idx);

  void track(std::uint16_t reg);
  std::uint32_t intern(std::string_view s);
  // Indices (not pointers) so that concurrent class/method additions that
  // reallocate the underlying vectors cannot dangle.
  [[nodiscard]] Method& m() const;

  DexBuilder* dex_;
  std::size_t cls_idx_;
  std::size_t method_idx_;
  bool finalized_ = false;
  std::uint16_t max_reg_ = 0;
  std::unordered_map<std::string, std::int32_t> labels_;
  // (instruction index, label) fixups patched in done().
  std::vector<std::pair<std::size_t, std::string>> fixups_;
};

class ClassBuilder {
 public:
  /// Add a method; params includes `this` for instance methods.
  MethodBuilder method(std::string_view name, std::uint16_t params,
                       std::uint32_t flags = kPublic);
  MethodBuilder static_method(std::string_view name, std::uint16_t params);
  ClassBuilder& native_method(std::string_view name, std::uint16_t params);
  ClassBuilder& instance_field(std::string_view name);
  ClassBuilder& static_field(std::string_view name);

 private:
  friend class DexBuilder;
  ClassBuilder(DexBuilder* dex, std::size_t cls_idx)
      : dex_(dex), cls_idx_(cls_idx) {}
  [[nodiscard]] ClassDef& c() const;
  DexBuilder* dex_;
  std::size_t cls_idx_;
};

class DexBuilder {
 public:
  DexBuilder() : dex_(std::make_unique<DexFile>()) {}

  /// Add (or reopen) a class.
  ClassBuilder cls(std::string_view name, std::string_view super_name = "");

  /// Finish and take the DexFile. The builder must not be reused afterwards.
  [[nodiscard]] DexFile build();

  [[nodiscard]] DexFile& file() { return *dex_; }

 private:
  friend class MethodBuilder;
  friend class ClassBuilder;
  std::unique_ptr<DexFile> dex_;
};

}  // namespace dydroid::dex
