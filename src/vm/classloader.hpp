// Class-loader hierarchy: BootClassLoader (framework intrinsics) at the
// root, the app's PathClassLoader over classes.dex, and any
// DexClassLoader/PathClassLoader instances the app creates at runtime —
// the paper's two DCL mediation points for bytecode.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dex/dexfile.hpp"
#include "vm/value.hpp"

namespace dydroid::vm {

class LoaderState;

/// A class resolved at runtime: its defining DexFile (kept alive via
/// shared_ptr), its ClassDef, defining loader, and static fields.
class RuntimeClass {
 public:
  RuntimeClass(std::string name, std::shared_ptr<const dex::DexFile> dex,
               const dex::ClassDef* def, LoaderState* loader)
      : name_(std::move(name)),
        dex_(std::move(dex)),
        def_(def),
        loader_(loader) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Null for synthetic framework classes served by the boot loader.
  [[nodiscard]] const dex::ClassDef* def() const { return def_; }
  [[nodiscard]] const dex::DexFile* dex() const { return dex_.get(); }
  [[nodiscard]] LoaderState* loader() const { return loader_; }
  [[nodiscard]] bool is_framework() const { return def_ == nullptr; }
  [[nodiscard]] const std::string& super_name() const {
    static const std::string kEmpty;
    return def_ == nullptr ? kEmpty : def_->super_name;
  }

  /// Static field storage (values live in vm::Value; stored here keyed by
  /// field name).
  [[nodiscard]] Value get_static(const std::string& field) const {
    const auto it = statics_.find(field);
    return it == statics_.end() ? Value() : it->second;
  }
  void set_static(const std::string& field, Value v) {
    statics_[field] = std::move(v);
  }

 private:
  std::string name_;
  std::shared_ptr<const dex::DexFile> dex_;
  const dex::ClassDef* def_;
  LoaderState* loader_;
  std::map<std::string, Value> statics_;
};

enum class LoaderType : std::uint8_t {
  Boot,
  AppPath,     // the app's initial PathClassLoader over classes.dex
  RuntimeDex,  // DexClassLoader created by the app
  RuntimePath, // PathClassLoader created by the app
  NativeLib,   // wraps a loaded SimNative's code pool
};

/// Mutable state behind a ClassLoader object.
class LoaderState {
 public:
  LoaderState(LoaderType type, LoaderState* parent)
      : type_(type), parent_(parent) {}

  [[nodiscard]] LoaderType type() const { return type_; }
  [[nodiscard]] LoaderState* parent() const { return parent_; }

  void add_dex(std::shared_ptr<const dex::DexFile> dexfile) {
    dexfiles_.push_back(std::move(dexfile));
  }

  /// Find a class defined by THIS loader's dex files (no delegation).
  struct Found {
    std::shared_ptr<const dex::DexFile> dex;
    const dex::ClassDef* def = nullptr;
  };
  [[nodiscard]] Found find_local(std::string_view name) const {
    for (const auto& d : dexfiles_) {
      if (const auto* def = d->find_class(name)) return Found{d, def};
    }
    return Found{};
  }

  /// Cache of classes this loader has defined.
  [[nodiscard]] RuntimeClass* cached(std::string_view name) const {
    const auto it = defined_.find(name);
    return it == defined_.end() ? nullptr : it->second.get();
  }
  RuntimeClass* define(std::unique_ptr<RuntimeClass> cls) {
    auto* raw = cls.get();
    defined_[raw->name()] = std::move(cls);
    return raw;
  }

 private:
  LoaderType type_;
  LoaderState* parent_;
  std::vector<std::shared_ptr<const dex::DexFile>> dexfiles_;
  std::map<std::string, std::unique_ptr<RuntimeClass>, std::less<>> defined_;
};

}  // namespace dydroid::vm
