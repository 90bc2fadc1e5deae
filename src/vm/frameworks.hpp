// Framework API surface served as intrinsics: class loaders, JNI loading,
// java.io files & streams, java.net URLs, telephony/location/accounts/
// package-manager privacy sources, logging/SMS sinks, system services, and
// the libc pseudo-syscalls reachable from native code.
//
// Every app runs on the same instrumented framework (the paper's one
// modified Android 4.3.1 image), so the table is built once per process and
// shared read-only by every Vm.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "vm/value.hpp"

namespace dydroid::vm {

class Vm;

/// Signature of a framework intrinsic: the receiver (for instance methods)
/// and the arguments, valid during the call.
using Intrinsic = std::function<Value(Vm&, std::span<const Value>)>;

/// Framework classes, their superclasses, and the intrinsics that serve
/// their methods.
class FrameworkTable {
 public:
  /// Declare a framework class (the boot loader will resolve it) and its
  /// super.
  void add_class(std::string_view name, std::string_view super = "");
  /// Serve "cls.method" with `fn`; declares `cls`.
  void add_intrinsic(std::string_view cls, std::string_view method,
                     Intrinsic fn);

  /// The intrinsic for cls.method, walking the framework class hierarchy
  /// (e.g. HttpURLConnection -> URLConnection for getInputStream); null when
  /// none serves it. Looks up by view: builds no key.
  [[nodiscard]] const Intrinsic* find(std::string_view cls,
                                      std::string_view method) const;
  /// True for a class the boot loader serves: declared here, or in a
  /// framework package (is_framework_class).
  [[nodiscard]] bool has_class(std::string_view name) const;

 private:
  struct Class {
    std::string super;  // empty at a hierarchy root
    std::map<std::string, Intrinsic, std::less<>> methods;
  };
  std::map<std::string, Class, std::less<>> classes_;
};

/// The framework every Vm runs on. Built during static initialization,
/// before main and so before any pool worker forks: a forked child inherits
/// it complete.
extern const FrameworkTable kFramework;

}  // namespace dydroid::vm
