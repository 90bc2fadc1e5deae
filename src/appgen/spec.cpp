#include "appgen/spec.hpp"

namespace dydroid::appgen {

bool AppSpec::has_dex_malware() const {
  for (const auto& m : malware) {
    if (!malware::family_is_native(m.family)) return true;
  }
  return false;
}

bool AppSpec::has_native_malware() const {
  for (const auto& m : malware) {
    if (malware::family_is_native(m.family)) return true;
  }
  return false;
}

}  // namespace dydroid::appgen
