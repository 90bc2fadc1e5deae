// MiniDalvik: the Dalvik-analogue virtual machine.
//
// One Vm instance hosts one app process on a SimDevice. The interpreter
// executes SimDex bytecode; framework classes are served as intrinsics from
// the process-wide table (frameworks.hpp); every DCL-relevant API funnels
// through the Instrumentation observers, giving DyDroid complete mediation
// exactly as the paper's modified Android 4.3.1 image does.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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

/// Identity of the app this Vm hosts.
struct AppContext {
  manifest::Manifest manifest;

  [[nodiscard]] const std::string& package() const { return manifest.package; }
  [[nodiscard]] os::Principal principal() const {
    os::Principal p;
    p.pkg = manifest.package;
    p.has_write_external =
        manifest.has_permission(manifest::kWriteExternalStorage);
    return p;
  }
};

/// A notable framework-level behaviour (notification posted, SMS sent,
/// ptrace attached, ...) recorded for behaviour verification.
struct VmEvent {
  std::string kind;
  std::string detail;
};

class Vm {
 public:
  Vm(os::Device& device, AppContext app, VmLimits limits = {});
  ~Vm();
  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  /// Install the app's code: builds the app PathClassLoader over the
  /// decompiler's parse of classes.dex (non-null), shared rather than
  /// re-parsed.
  void load_app(std::shared_ptr<const dex::DexFile> classes_dex);

  [[nodiscard]] Instrumentation& instrumentation() { return hooks_; }
  [[nodiscard]] os::Device& device() { return *device_; }
  [[nodiscard]] const AppContext& app() const { return app_; }
  [[nodiscard]] const VmLimits& limits() const { return limits_; }

  // --- entry points -------------------------------------------------------

  /// Instantiate an app class (runs its <init> if defined) — used for
  /// activities, services, and the application container.
  ObjRef instantiate(std::string_view class_name);
  /// Invoke a (possibly inherited) method on an app object; extra args follow
  /// the receiver. Returns the method result. Throws VmException.
  Value call_method(const ObjRef& receiver, std::string_view method_name,
                    std::vector<Value> extra_args = {});
  /// Invoke a static app method by class+name.
  Value call_static(std::string_view class_name, std::string_view method_name,
                    std::vector<Value> args = {});
  /// True if the object's class (or a superclass) defines the method.
  bool has_method(const ObjRef& receiver, std::string_view method_name);

  // --- services for intrinsics (frameworks.cpp) ---------------------------

  /// Allocate a heap object with a fresh id.
  ObjRef make_object(std::string_view class_name, RuntimeClass* rt = nullptr);
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
  Value invoke(RuntimeClass* cls, const dex::Method& method,
               std::vector<Value> args);

  void record_event(std::string kind, std::string detail);
  [[nodiscard]] const std::vector<VmEvent>& events() const { return events_; }

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
  // outlives the frame: the RuntimeClass (its name), the dex::Method (its
  // name), the caller's DexFile string pool, the receiver VmObject (its
  // class name) or the ClassDef::super_name the super walk dispatched on.
  // current_stack_trace() copies them only when a trace is materialized.
  struct Frame {
    RuntimeClass* cls = nullptr;  // nullptr for intrinsic frames
    std::string_view class_name;
    std::string_view method_name;
  };

  /// Parent-first delegation without throwing: null when no loader in the
  /// chain defines `name`. A null `loader` means current_loader().
  RuntimeClass* find_class(LoaderState* loader, std::string_view name);
  Value execute_body(RuntimeClass* cls, const dex::Method& method,
                     std::vector<Value> args);
  Value dispatch_invoke(RuntimeClass* caller_cls, const dex::DexFile& dexf,
                        const dex::Instruction& ins,
                        std::vector<Value>& regs);
  Value call_intrinsic(const std::string& cls, const std::string& method,
                       const Intrinsic& fn, std::vector<Value> args);
  RuntimeClass* resolve_app_method(RuntimeClass* start,
                                   std::string_view method_name,
                                   const dex::Method** out);
  LoaderState* new_loader(LoaderType type, LoaderState* parent);

  os::Device* device_;
  AppContext app_;
  VmLimits limits_;
  Instrumentation hooks_;

  std::vector<std::unique_ptr<LoaderState>> loaders_;
  LoaderState* boot_loader_ = nullptr;
  LoaderState* app_loader_ = nullptr;

  struct LoadedNative {
    std::string path;
    nativebin::NativeLibrary lib;
    LoaderState* loader;
  };
  std::vector<std::unique_ptr<LoadedNative>> natives_;

  std::vector<Frame> frames_;
  std::vector<VmEvent> events_;
  std::uint64_t next_object_id_ = 1;
  std::uint64_t steps_ = 0;
};

}  // namespace dydroid::vm
