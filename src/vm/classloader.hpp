// Class-loader hierarchy: BootClassLoader (framework intrinsics) at the
// root, the app's PathClassLoader over classes.dex, and any
// DexClassLoader/PathClassLoader instances the app creates at runtime —
// the paper's two DCL mediation points for bytecode.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dex/dexfile.hpp"
#include "vm/value.hpp"

namespace dydroid::vm {

class LoaderState;

/// A dex file as one loader holds it, with the Vm's names for the entries
/// of its string pool, interned on first use (Name{} until then).
struct LoadedDex {
  std::shared_ptr<const dex::DexFile> dex;
  std::vector<Name> names;
};

/// A class resolved at runtime: its defining dex (held by its loader), its
/// ClassDef, defining loader, static fields, and what the Vm has resolved
/// through it so far. The Vm owns every RuntimeClass for its lifetime.
class RuntimeClass {
 public:
  /// Where a method name resolves from this class: the app class that
  /// defines it (walking app superclasses) and the method, or nulls.
  struct Resolution {
    RuntimeClass* owner = nullptr;
    const dex::Method* method = nullptr;
  };

  /// `name` views the Vm's interned `name_id`; `dex` and `def` are null
  /// for synthetic framework classes served by the boot loader.
  RuntimeClass(Name name_id, std::string_view name, LoadedDex* dex,
               const dex::ClassDef* def, LoaderState* loader)
      : name_id_(name_id), name_(name), dex_(dex), def_(def), loader_(loader) {}

  [[nodiscard]] Name name_id() const { return name_id_; }
  [[nodiscard]] std::string_view name() const { return name_; }
  /// Null for synthetic framework classes served by the boot loader.
  [[nodiscard]] const dex::ClassDef* def() const { return def_; }
  [[nodiscard]] LoadedDex* dex() const { return dex_; }
  [[nodiscard]] LoaderState* loader() const { return loader_; }
  [[nodiscard]] bool is_framework() const { return def_ == nullptr; }
  [[nodiscard]] std::string_view super_name() const {
    return def_ == nullptr ? std::string_view() : def_->super_name;
  }

  /// Static field storage, keyed by field name.
  [[nodiscard]] Value get_static(Name field) const {
    for (const auto& [key, value] : statics_) {
      if (key == field) return value;
    }
    return Value();
  }
  void set_static(Name field, Value v) {
    for (auto& [key, value] : statics_) {
      if (key == field) {
        value = v;
        return;
      }
    }
    statics_.emplace_back(field, v);
  }

  // --- resolution memos, filled by the Vm --------------------------------
  // Classes never change once defined, and a loader's dex set is fixed once
  // it is built, so a resolution, hit or miss, holds for the Vm's lifetime.

  /// The memoized resolution of `method`, or null when not yet resolved.
  [[nodiscard]] const Resolution* resolved(Name method) const {
    for (const auto& [key, res] : methods_) {
      if (key == method) return &res;
    }
    return nullptr;
  }
  void remember(Name method, Resolution res) {
    if (methods_.empty()) methods_.reserve(8);  // the callbacks it serves
    methods_.emplace_back(method, res);
  }

  /// The superclass's name (Name{} at a root) and the class it resolves to
  /// through this class's loader (null when no loader defines it); valid
  /// once super_known().
  [[nodiscard]] bool super_known() const { return super_known_; }
  [[nodiscard]] Name super_id() const { return super_id_; }
  [[nodiscard]] RuntimeClass* super() const { return super_; }
  void set_super(Name super_id, RuntimeClass* super) {
    super_id_ = super_id;
    super_ = super;
    super_known_ = true;
  }

 private:
  Name name_id_;
  Name super_id_;
  std::string_view name_;
  LoadedDex* dex_;
  const dex::ClassDef* def_;
  LoaderState* loader_;
  RuntimeClass* super_ = nullptr;
  bool super_known_ = false;
  std::vector<std::pair<Name, Value>> statics_;
  std::vector<std::pair<Name, Resolution>> methods_;
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

  /// Only while the loader is being built, before it defines a class:
  /// its classes point at their LoadedDex.
  void add_dex(std::shared_ptr<const dex::DexFile> dexfile) {
    dexfiles_.push_back(LoadedDex{std::move(dexfile), {}});
  }

  /// Find a class defined by THIS loader's dex files (no delegation).
  struct Found {
    LoadedDex* dex = nullptr;
    const dex::ClassDef* def = nullptr;
  };
  [[nodiscard]] Found find_local(std::string_view name) {
    for (auto& d : dexfiles_) {
      if (const auto* def = d.dex->find_class(name)) return Found{&d, def};
    }
    return Found{};
  }

  /// The class this loader resolved `name` to — defined here or found
  /// through delegation — or null when it has not resolved it yet.
  [[nodiscard]] RuntimeClass* cached(Name name) const {
    return name.id < classes_.size() ? classes_[name.id] : nullptr;
  }
  void remember(Name name, RuntimeClass* cls) {
    if (name.id >= classes_.size()) {
      classes_.resize(std::max<std::size_t>(name.id + 1, 64));
    }
    classes_[name.id] = cls;
  }

 private:
  LoaderType type_;
  LoaderState* parent_;
  std::vector<LoadedDex> dexfiles_;
  std::vector<RuntimeClass*> classes_;  // by Name id; the Vm owns them
};

}  // namespace dydroid::vm
