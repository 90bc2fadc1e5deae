// MiniDalvik: the Dalvik-analogue virtual machine.
//
// One Vm instance hosts one app process on a SimDevice. The interpreter
// executes SimDex bytecode; framework classes are served as intrinsics from
// the process-wide table (frameworks.hpp); every DCL-relevant API funnels
// through the Instrumentation observers, giving DyDroid complete mediation
// exactly as the paper's modified Android 4.3.1 image does.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nativebin/native_library.hpp"
#include "os/device.hpp"
#include "vm/classloader.hpp"
#include "vm/frameworks.hpp"
#include "vm/instrumentation.hpp"
#include "vm/value.hpp"

namespace dydroid::vm {

/// Uncaught app-level exception (also: ClassNotFound, IO errors, ANR budget
/// exhaustion). Carries the VM stack trace at throw time. Only the API
/// boundary and app-visible failures make one; internal resolution returns
/// null instead. Each one made bumps the `vm.exceptions` counter.
class VmException : public std::runtime_error {
 public:
  VmException(const std::string& what, StackTrace trace, bool budget = false);
  [[nodiscard]] const StackTrace& trace() const { return trace_; }
  /// Set only by the step-budget (ANR) and call-depth (StackOverflowError)
  /// guards: no app handler may catch these.
  [[nodiscard]] bool budget() const { return budget_; }

 private:
  StackTrace trace_;
  bool budget_;
};

/// Execution budget guards: dynamic analysis over tens of thousands of apps
/// must never hang (paper: "stable operation with little manual
/// intervention").
struct VmLimits {
  std::uint64_t max_steps_per_entry = 2'000'000;
  int max_call_depth = 64;
};

/// A notable framework-level behaviour (notification posted, SMS sent,
/// ptrace attached, ...) recorded for behaviour verification.
struct VmEvent {
  std::string kind;
  std::string detail;
};

class Vm {
 public:
  /// Hosts the app `manifest` describes. The Vm borrows the manifest: it
  /// must outlive the Vm.
  Vm(os::Device& device, const manifest::Manifest& manifest,
     VmLimits limits = {});
  ~Vm();
  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  /// Install the app's code: builds the app PathClassLoader over the
  /// decompiler's parse of classes.dex (non-null), shared rather than
  /// re-parsed.
  void load_app(std::shared_ptr<const dex::DexFile> classes_dex);

  [[nodiscard]] Instrumentation& instrumentation() { return hooks_; }
  [[nodiscard]] os::Device& device() { return *device_; }
  [[nodiscard]] const manifest::Manifest& manifest() const {
    return *manifest_;
  }
  [[nodiscard]] const std::string& package() const {
    return manifest_->package;
  }
  /// The app's identity for file-system access.
  [[nodiscard]] const os::Principal& principal() const { return principal_; }
  [[nodiscard]] const VmLimits& limits() const { return limits_; }

  /// This Vm's name for `s` (class, method or field names); equal strings
  /// get equal names.
  Name intern(std::string_view s) { return names_.intern(s); }

  // --- entry points -------------------------------------------------------

  /// Instantiate an app class (runs its <init> if defined) — used for
  /// activities, services, and the application container.
  ObjRef instantiate(std::string_view class_name);
  /// Invoke a (possibly inherited) method on an app object; extra args
  /// (fewer than dex::kMaxInvokeArgs, as for an invoke instruction) follow
  /// the receiver. Returns the method result. Throws VmException.
  Value call_method(ObjRef receiver, Name method,
                    std::span<const Value> extra_args = {});
  Value call_method(ObjRef receiver, std::string_view method_name,
                    std::span<const Value> extra_args = {}) {
    return call_method(receiver, intern(method_name), extra_args);
  }
  /// Invoke a static app method by class+name.
  Value call_static(std::string_view class_name, std::string_view method_name,
                    std::span<const Value> args = {});
  /// True if the object's class (or a superclass) defines the method. The
  /// answer is remembered, so a call_method that follows costs no walk.
  bool has_method(ObjRef receiver, Name method);
  bool has_method(ObjRef receiver, std::string_view method_name) {
    return has_method(receiver, intern(method_name));
  }

  // --- services for intrinsics (frameworks.cpp) ---------------------------

  /// Allocate a framework object of class `class_name` with the next id.
  ObjRef make_object(std::string_view class_name);
  /// Allocate an instance of `cls` (app or framework) with the next id.
  ObjRef make_object(RuntimeClass* cls);
  /// An untainted string value made at run time, held by the Vm's arena.
  Value make_string(std::string s);
  /// Current Java-style stack trace, innermost first.
  [[nodiscard]] StackTrace current_stack_trace() const;
  /// The defining loader of the innermost non-intrinsic frame (falls back to
  /// the app loader) — the loader used by Class.forName & friends.
  [[nodiscard]] LoaderState* current_loader() const;

  /// Create a runtime class loader (DexClassLoader / PathClassLoader ctor).
  /// Reads and parses every file in the ':'-separated dex_path; fires the
  /// on_dex_load hook; writes odex output under optimized_dir when given.
  /// Throws VmException on unreadable/unparsable files.
  LoaderState* create_runtime_loader(LoaderKind kind,
                                     const std::string& dex_path,
                                     const std::string& optimized_dir,
                                     LoaderState* parent);

  /// Resolve + load a class through a loader (parent-first delegation).
  /// Throws VmException(ClassNotFound) on failure.
  RuntimeClass* load_class(LoaderState* loader, std::string_view name);

  /// Load a native library from an absolute path. System libraries
  /// (/system/lib) are trusted no-ops. Fires on_native_load. Throws
  /// VmException (UnsatisfiedLinkError) when missing or unparsable.
  void load_native_library(const std::string& path);
  /// loadLibrary(name): resolve via app lib dir then /system/lib.
  void load_native_library_by_name(const std::string& name);

  /// Find an exported native symbol across loaded libraries.
  struct NativeSymbol {
    RuntimeClass* cls = nullptr;
    const dex::Method* method = nullptr;
  };
  [[nodiscard]] std::optional<NativeSymbol> find_native_symbol(
      std::string_view name);

  /// Invoke a resolved method (used by reflection & component dispatch).
  /// `args` fill the method's first registers.
  Value invoke(RuntimeClass* cls, const dex::Method& method,
               std::span<const Value> args);

  void record_event(std::string kind, std::string detail);
  [[nodiscard]] const std::vector<VmEvent>& events() const { return events_; }
  /// Hands the recorded events over, leaving none.
  [[nodiscard]] std::vector<VmEvent> take_events() {
    return std::move(events_);
  }

  /// Read a VFS file as a refcounted snapshot view; throws
  /// VmException(FileNotFound) when absent. The returned Blob stays valid
  /// even if the file is later overwritten or deleted.
  support::Blob read_file_or_throw(const std::string& path);
  /// Write as the app principal. Full-storage errors surface as
  /// VmException(IOException); permission errors likewise.
  void write_file_as_app(const std::string& path, support::Bytes data);

  [[nodiscard]] VmException make_exception(const std::string& what) const {
    return VmException(what, current_stack_trace());
  }

  void emit_flow(const FlowNode& from, const FlowNode& to);
  [[nodiscard]] std::uint64_t steps_last_entry() const { return steps_; }

 private:
  // A frame holds views, not copies. Each points into an owner that
  // outlives the frame: the interned class name, the dex::Method (its
  // name), the caller's DexFile string pool, the receiver's class name or
  // the ClassDef::super_name the super walk dispatched on.
  // current_stack_trace() copies them only when a trace is materialized.
  struct Frame {
    RuntimeClass* cls = nullptr;  // nullptr for intrinsic frames
    std::string_view class_name;
    std::string_view method_name;
  };
  /// An active exception handler: on a VmException the message goes to
  /// register `reg` and execution continues at `pc`.
  struct Handler {
    std::uint16_t reg = 0;
    std::int32_t pc = 0;
  };

  /// Parent-first delegation without throwing: null when no loader in the
  /// chain defines `name`. A null `loader` means current_loader(). Each
  /// loader on the way remembers what it found.
  RuntimeClass* find_class(LoaderState* loader, Name name);
  /// The class `loader` itself defines as `name` (boot: a framework class),
  /// or null.
  RuntimeClass* define_class(LoaderState* loader, Name name);
  /// The Vm's name for entry `idx` of the string pool of `dex`.
  Name pool_name(LoadedDex& dex, std::uint32_t idx);
  /// load_class for the class named by entry `idx` of the caller's pool,
  /// through the caller's loader.
  RuntimeClass* load_pool_class(RuntimeClass* caller, std::uint32_t idx);
  /// Resolves the superclass of `cls` once; see RuntimeClass::super().
  RuntimeClass* super_of(RuntimeClass* cls);
  /// kFramework.find for a class and method, remembered per Vm, hits and
  /// misses alike.
  const Intrinsic* find_intrinsic(Name cls, Name method);
  RuntimeClass::Resolution resolve_app_method(RuntimeClass* start,
                                              Name method);

  Value execute_body(RuntimeClass* cls, const dex::Method& method,
                     std::span<const Value> args);
  Value dispatch_invoke(RuntimeClass* caller_cls, const dex::Instruction& ins,
                        const Value* regs);
  Value call_intrinsic(std::string_view cls, std::string_view method,
                       const Intrinsic& fn, std::span<const Value> args);
  LoaderState* new_loader(LoaderType type, LoaderState* parent);

  os::Device* device_;
  const manifest::Manifest* manifest_;
  os::Principal principal_;
  VmLimits limits_;
  Instrumentation hooks_;

  NameTable names_;
  Name init_name_;  // "<init>"
  struct KnownIntrinsic {
    Name cls;
    Name method;
    const Intrinsic* fn;  // null: no intrinsic serves it
  };
  std::vector<KnownIntrinsic> intrinsics_;
  std::deque<std::string> strings_;  // strings made at run time
  Slab<LoaderState, 8> loaders_;
  Slab<RuntimeClass, 32> classes_;
  Slab<VmObject, 32> objects_;  // object id n sits at position n - 1
  LoaderState* boot_loader_ = nullptr;
  LoaderState* app_loader_ = nullptr;

  struct LoadedNative {
    std::string path;
    nativebin::NativeLibrary lib;
    LoaderState* loader;
  };
  std::vector<std::shared_ptr<LoadedNative>> natives_;

  // The call path: one frame per call, one register window per app frame
  // on one register stack, and the active handlers of every frame.
  std::vector<Frame> frames_;
  std::vector<Value> stack_;
  std::vector<Handler> handlers_;

  std::vector<VmEvent> events_;
  std::uint64_t steps_ = 0;
};

}  // namespace dydroid::vm
