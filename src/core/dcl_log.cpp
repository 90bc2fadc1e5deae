#include "core/dcl_log.hpp"

#include <utility>

#include "support/strings.hpp"

namespace dydroid::core {

std::string_view code_kind_name(CodeKind kind) {
  return kind == CodeKind::Dex ? "DEX" : "Native";
}

std::string_view entity_name(Entity entity) {
  return entity == Entity::Own ? "Own" : "3rd-party";
}

void InterceptedBinary::set_bytes(support::Blob payload) {
  bytes = std::move(payload);
  digest = support::sha256(bytes.span());
}

std::string call_site_of(const vm::StackTrace& trace) {
  for (const auto& frame : trace) {
    if (!vm::is_framework_class(frame.class_name)) return frame.class_name;
  }
  return "";
}

Entity classify_entity(std::string_view call_site_class,
                       std::string_view app_package) {
  const auto pkg = support::package_of(call_site_class);
  return support::package_has_prefix(pkg, app_package) ? Entity::Own
                                                       : Entity::ThirdParty;
}

}  // namespace dydroid::core
