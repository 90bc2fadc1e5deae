// MiniDalvik value & object model.
//
// A Value is 16 trivially copyable bytes: a tag, an 8-byte payload and the
// dynamic taint mask. The payload is a 64-bit integer, a pointer to a
// string or a pointer to a heap object. A string lives in a DexFile string
// pool (const-str) or in its Vm's arena (strings made at run time); an
// object lives in its Vm's slab. Every DexFile a value can point into is
// held by one of the Vm's loaders, so both outlive every value the Vm hands
// out, and both die with the Vm. Nothing is reference-counted, so no cycle
// an app builds (a stream wrapping itself, a field pointing back at its
// object) outlives its Vm.
//
// Every object carries its Vm-unique id, counted from 1 in each Vm — the
// "hash code" the paper's download tracker uses to identify objects in flow
// edges (Table I: "Each object is represented by type and hash code").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "support/blob.hpp"
#include "support/bytes.hpp"

namespace dydroid::dex {
struct Method;
}

namespace dydroid::vm {

class LoaderState;
class RuntimeClass;
class VmObject;

/// A reference to a heap object: its slot in the owning Vm's slab. Null is
/// no object.
using ObjRef = VmObject*;

/// An interned class, method or field name. Within one Vm equal names have
/// equal ids, so tables keyed by name compare integers (the ids of two Vms
/// are unrelated). Id 0 is no name.
struct Name {
  std::uint32_t id = 0;

  explicit operator bool() const { return id != 0; }
  friend bool operator==(Name, Name) = default;
};

class Value {
 public:
  Value() = default;  // null
  // NOLINTBEGIN(google-explicit-constructor): values convert implicitly,
  // mirroring how registers hold any type.
  Value(std::int64_t i) : tag_(Tag::Int) { payload_.i = i; }
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}
  /// A null reference is the null value.
  Value(ObjRef o) : tag_(o == nullptr ? Tag::Null : Tag::Obj) {
    payload_.obj = o;
  }
  // NOLINTEND(google-explicit-constructor)

  /// A string value viewing `s`, which must outlive the value: a DexFile
  /// pool string, the app's manifest, or a string of the Vm's arena
  /// (Vm::make_string). Untainted.
  static Value of_str(const std::string& s) {
    Value v;
    v.tag_ = Tag::Str;
    v.payload_.str = &s;
    return v;
  }

  [[nodiscard]] bool is_null() const { return tag_ == Tag::Null; }
  [[nodiscard]] bool is_int() const { return tag_ == Tag::Int; }
  [[nodiscard]] bool is_str() const { return tag_ == Tag::Str; }
  [[nodiscard]] bool is_obj() const { return tag_ == Tag::Obj; }

  /// Integer view; null reads as 0 (throws on string/object).
  [[nodiscard]] std::int64_t as_int() const;
  /// String view; throws unless the value is a string.
  [[nodiscard]] const std::string& as_str() const;
  /// Object view; throws unless the value is an object reference.
  [[nodiscard]] ObjRef as_obj() const;

  /// Human-readable rendering (Concat, log output, exception messages):
  /// "null", the integer, the string, or "<class>@<id>" for an object.
  [[nodiscard]] std::string display() const;

  /// Structural equality: ints and strings by content, objects by
  /// identity, null == null.
  [[nodiscard]] bool equals(const Value& other) const;

  /// Truthiness for If* branches: null is false, an int is true when
  /// non-zero, a string when non-empty, an object always.
  [[nodiscard]] bool truthy() const;

  /// Dynamic taint label (TaintDroid-style): a bitmask of privacy data
  /// types attached to the value and propagated by the interpreter. Zero
  /// for untainted values.
  [[nodiscard]] std::uint32_t taint() const { return taint_; }
  void set_taint(std::uint32_t mask) { taint_ = mask; }
  void add_taint(std::uint32_t mask) { taint_ |= mask; }

 private:
  enum class Tag : std::uint8_t { Null, Int, Str, Obj };
  union Payload {
    std::int64_t i;
    const std::string* str;
    VmObject* obj;
  };

  Payload payload_{0};
  std::uint32_t taint_ = 0;
  Tag tag_ = Tag::Null;
};

static_assert(sizeof(Value) == 16);
static_assert(std::is_trivially_copyable_v<Value>);

// ---------------------------------------------------------------------------
// Framework-native state behind an object.
// ---------------------------------------------------------------------------

struct LoaderHandle {
  LoaderState* loader = nullptr;
};

struct ClassHandle {
  RuntimeClass* cls = nullptr;
};

struct MethodHandle {
  RuntimeClass* cls = nullptr;
  const dex::Method* method = nullptr;
};

struct InputStreamState {
  support::Blob data;  // snapshot view of the source (file entry, asset…)
  std::size_t pos = 0;
  ObjRef inner = nullptr;  // set for wrapping streams (BufferedInputStream)
};

struct OutputStreamState {
  std::string path;  // file-backed streams
  bool is_network = false;
  std::string url;  // network-backed streams
  support::Bytes written;
};

struct BufferState {
  support::Bytes data;
};

/// What a framework object holds besides its fields: a class loader, a
/// reflection handle, a stream or a byte buffer. Held in the object itself,
/// so it lives in the slab and is destroyed with the Vm.
using NativeState =
    std::variant<std::monostate, LoaderHandle, ClassHandle, MethodHandle,
                 InputStreamState, OutputStreamState, BufferState>;

/// A heap object: dynamic class name, named fields, and (for framework
/// objects) native state such as an open stream or a loader.
class VmObject {
 public:
  /// `class_name` views the Vm's interned `class_id`.
  VmObject(std::uint64_t id, Name class_id, std::string_view class_name,
           RuntimeClass* rt)
      : id_(id), class_id_(class_id), class_name_(class_name), rt_class_(rt) {}

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] Name class_id() const { return class_id_; }
  [[nodiscard]] std::string_view class_name() const { return class_name_; }

  [[nodiscard]] Value get_field(Name name) const {
    for (const auto& [key, value] : fields_) {
      if (key == name) return value;
    }
    return Value();
  }
  void set_field(Name name, Value v) {
    for (auto& [key, value] : fields_) {
      if (key == name) {
        value = v;
        return;
      }
    }
    fields_.emplace_back(name, v);
  }

  [[nodiscard]] NativeState& native_state() { return native_; }
  /// The native state if it holds a T, else null.
  template <typename T>
  [[nodiscard]] T* native() {
    return std::get_if<T>(&native_);
  }

  /// Runtime class for app-defined objects; null for framework objects.
  /// Non-owning: the Vm owns RuntimeClass instances and outlives its heap.
  [[nodiscard]] RuntimeClass* rt_class() const { return rt_class_; }

 private:
  std::uint64_t id_;
  Name class_id_;
  std::string_view class_name_;
  RuntimeClass* rt_class_;
  std::vector<std::pair<Name, Value>> fields_;  // few per object: a scan
  NativeState native_;
};

// ---------------------------------------------------------------------------
// Per-Vm storage.
// ---------------------------------------------------------------------------

/// Append-only storage whose elements keep their address until the slab
/// dies: chunks of kChunk, each reserved up front and never reallocated.
/// Element i is the i-th one emplaced.
template <typename T, std::size_t kChunk>
class Slab {
 public:
  template <typename... Args>
  T& emplace(Args&&... args) {
    if (chunks_.empty() || chunks_.back().size() == kChunk) {
      chunks_.emplace_back().reserve(kChunk);
    }
    return chunks_.back().emplace_back(std::forward<Args>(args)...);
  }
  [[nodiscard]] std::size_t size() const {
    return chunks_.empty() ? 0
                           : (chunks_.size() - 1) * kChunk +
                                 chunks_.back().size();
  }
  [[nodiscard]] T& operator[](std::size_t i) {
    return chunks_[i / kChunk][i % kChunk];
  }

 private:
  std::vector<std::vector<T>> chunks_;
};

/// A Vm's name interner: an open-addressing table of ids over views into
/// an arena of the names' characters. Per Vm and single-threaded, like the
/// Vm itself, so it takes no lock.
class NameTable {
 public:
  NameTable();
  /// The id of `s`, assigned on first sight; never Name{}.
  Name intern(std::string_view s);
  [[nodiscard]] std::string_view view(Name name) const {
    return views_[name.id];
  }

 private:
  void grow();
  std::string_view keep(std::string_view s);

  std::vector<std::string_view> views_;  // by id; views_[0] is no name
  std::vector<std::uint32_t> slots_;     // ids by hash; 0 is empty
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cursor_ = nullptr;
  std::size_t room_ = 0;
};

}  // namespace dydroid::vm
