#include "vm/stack_trace.hpp"

#include "support/strings.hpp"

namespace dydroid::vm {

bool is_framework_class(std::string_view class_name) {
  using support::package_has_prefix;
  return package_has_prefix(class_name, "java") ||
         package_has_prefix(class_name, "javax") ||
         package_has_prefix(class_name, "dalvik") ||
         package_has_prefix(class_name, "android") || class_name == "libc" ||
         package_has_prefix(class_name, "com.android.internal");
}

std::string format_stack_trace(const StackTrace& trace) {
  std::string out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i != 0) out += " <- ";
    out += trace[i].class_name + "." + trace[i].method_name;
  }
  return out;
}

}  // namespace dydroid::vm
