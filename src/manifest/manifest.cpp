#include "manifest/manifest.hpp"

#include <algorithm>
#include <sstream>

#include "support/fault.hpp"

namespace dydroid::manifest {

using support::ParseError;

std::string_view component_kind_name(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::Activity: return "activity";
    case ComponentKind::Service: return "service";
    case ComponentKind::Receiver: return "receiver";
    case ComponentKind::Provider: return "provider";
  }
  return "?";
}

namespace {
std::optional<ComponentKind> component_kind_from(std::string_view name) {
  if (name == "activity") return ComponentKind::Activity;
  if (name == "service") return ComponentKind::Service;
  if (name == "receiver") return ComponentKind::Receiver;
  if (name == "provider") return ComponentKind::Provider;
  return std::nullopt;
}
}  // namespace

bool Manifest::has_permission(std::string_view permission) const {
  return std::find(permissions.begin(), permissions.end(), permission) !=
         permissions.end();
}

void Manifest::add_permission(std::string_view permission) {
  if (!has_permission(permission)) permissions.emplace_back(permission);
}

const Component* Manifest::launcher_activity() const {
  for (const auto& c : components) {
    if (c.kind == ComponentKind::Activity && c.launcher) return &c;
  }
  return nullptr;
}

bool Manifest::has_component(std::string_view class_name) const {
  return std::any_of(components.begin(), components.end(),
                     [&](const Component& c) { return c.name == class_name; });
}

std::string Manifest::to_text() const {
  std::ostringstream out;
  out << "<manifest package=\"" << package << "\" versionName=\""
      << version_name << "\">\n";
  out << "  <uses-sdk minSdkVersion=\"" << min_sdk << "\"/>\n";
  for (const auto& p : permissions) {
    out << "  <uses-permission name=\"" << p << "\"/>\n";
  }
  out << "  <application";
  if (!application_name.empty()) out << " name=\"" << application_name << "\"";
  out << ">\n";
  for (const auto& c : components) {
    out << "    <" << component_kind_name(c.kind) << " name=\"" << c.name
        << "\"";
    if (c.launcher) out << " launcher=\"true\"";
    out << "/>\n";
  }
  out << "  </application>\n";
  out << "</manifest>\n";
  return out.str();
}

namespace {

/// The value of attr="value" on a line (a view into the line); nullopt if
/// absent. Matches the first `attr="` anywhere on the line, so `name`
/// also matches inside `xname="..."`.
std::optional<std::string_view> attr_value(std::string_view line,
                                           std::string_view attr) {
  for (auto pos = line.find(attr); pos != std::string_view::npos;
       pos = line.find(attr, pos + 1)) {
    const auto rest = line.substr(pos + attr.size());
    if (!rest.starts_with("=\"")) continue;
    const auto value = rest.substr(2);
    const auto end = value.find('"');
    if (end == std::string_view::npos) {
      throw ParseError("manifest: unterminated attribute " + std::string(attr));
    }
    return value.substr(0, end);
  }
  return std::nullopt;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

Manifest Manifest::from_text(std::string_view text) {
  // Fault-injection site: malformed manifest (support::FaultInjector).
  if (support::fault_fire(support::FaultSite::kManifestParse)) {
    throw ParseError(support::fault_message(support::FaultSite::kManifestParse));
  }
  Manifest m;
  bool saw_manifest = false;
  for (std::size_t start = 0; start <= text.size();) {
    auto end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const auto line = trim(text.substr(start, end - start));
    start = end + 1;
    if (line.empty()) continue;
    if (line.starts_with("<manifest")) {
      saw_manifest = true;
      if (auto pkg = attr_value(line, "package")) m.package = *pkg;
      if (auto ver = attr_value(line, "versionName")) m.version_name = *ver;
    } else if (line.starts_with("<uses-sdk")) {
      if (auto sdk = attr_value(line, "minSdkVersion")) {
        const std::string digits(*sdk);
        try {
          m.min_sdk = std::stoi(digits);
        } catch (const std::exception&) {
          throw ParseError("manifest: bad minSdkVersion: " + digits);
        }
      }
    } else if (line.starts_with("<uses-permission")) {
      if (auto name = attr_value(line, "name")) m.add_permission(*name);
    } else if (line.starts_with("<application")) {
      if (auto name = attr_value(line, "name")) m.application_name = *name;
    } else if (line.starts_with("<") && !line.starts_with("</")) {
      const auto tag_end = line.find_first_of(" />", 1);
      const auto tag = line.substr(1, tag_end - 1);
      if (auto kind = component_kind_from(tag)) {
        Component c;
        c.kind = *kind;
        if (auto name = attr_value(line, "name")) {
          c.name = *name;
        } else {
          throw ParseError("manifest: component without name");
        }
        if (auto launcher = attr_value(line, "launcher")) {
          c.launcher = (*launcher == "true");
        }
        m.components.push_back(std::move(c));
      }
    }
  }
  if (!saw_manifest || m.package.empty()) {
    throw ParseError("manifest: missing <manifest package=...>");
  }
  return m;
}

}  // namespace dydroid::manifest
