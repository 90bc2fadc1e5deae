#include "core/report_json.hpp"

#include <sstream>

#include "support/strings.hpp"

namespace dydroid::core {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += support::format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string quoted(std::string_view s) {
  return "\"" + json_escape(s) + "\"";
}

void write_event(std::ostringstream& out, const DclEvent& event,
                 const char* indent) {
  out << indent << "{\n";
  out << indent << "  \"kind\": " << quoted(code_kind_name(event.kind))
      << ",\n";
  out << indent << "  \"paths\": [";
  for (std::size_t i = 0; i < event.paths.size(); ++i) {
    if (i != 0) out << ", ";
    out << quoted(event.paths[i]);
  }
  out << "],\n";
  if (!event.optimized_dir.empty()) {
    out << indent << "  \"optimized_dir\": " << quoted(event.optimized_dir)
        << ",\n";
  }
  out << indent << "  \"call_site\": " << quoted(event.call_site_class)
      << ",\n";
  out << indent << "  \"entity\": " << quoted(entity_name(event.entity))
      << ",\n";
  out << indent << "  \"system_binary\": "
      << (event.system_binary ? "true" : "false") << ",\n";
  out << indent << "  \"integrity_check_before\": "
      << (event.integrity_check_before ? "true" : "false") << ",\n";
  out << indent << "  \"stack\": "
      << quoted(vm::format_stack_trace(event.trace)) << "\n";
  out << indent << "}";
}

void write_binary(std::ostringstream& out, const BinaryReport& binary,
                  const char* indent) {
  out << indent << "{\n";
  out << indent << "  \"path\": " << quoted(binary.binary.path) << ",\n";
  out << indent << "  \"kind\": "
      << quoted(code_kind_name(binary.binary.kind)) << ",\n";
  out << indent << "  \"size\": " << binary.binary.bytes.size() << ",\n";
  out << indent << "  \"sha256\": \"" << binary.binary.digest.hex()
      << "\",\n";
  out << indent << "  \"call_site\": " << quoted(binary.binary.call_site_class)
      << ",\n";
  out << indent << "  \"entity\": "
      << quoted(entity_name(binary.binary.entity)) << ",\n";
  out << indent << "  \"origin_url\": "
      << (binary.origin_url ? quoted(*binary.origin_url) : "null") << ",\n";
  out << indent << "  \"malware\": ";
  if (binary.malware.has_value()) {
    out << "{\"family\": " << quoted(binary.malware->family)
        << ", \"score\": " << support::format("%.4f", binary.malware->score)
        << "}";
  } else {
    out << "null";
  }
  out << ",\n";
  out << indent << "  \"privacy_leaks\": [";
  for (std::size_t i = 0; i < binary.privacy.leaks.size(); ++i) {
    const auto& leak = binary.privacy.leaks[i];
    if (i != 0) out << ", ";
    out << "{\"type\": " << quoted(privacy::data_type_name(leak.type))
        << ", \"category\": "
        << quoted(privacy::category_name(privacy::category_of(leak.type)))
        << ", \"sink\": " << quoted(leak.sink_api)
        << ", \"class\": " << quoted(leak.sink_class) << "}";
  }
  out << "]\n";
  out << indent << "}";
}

}  // namespace

std::string report_to_json(const AppReport& report) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"package\": " << quoted(report.package) << ",\n";
  out << "  \"min_sdk\": " << report.min_sdk << ",\n";
  out << "  \"decompile_failed\": "
      << (report.decompile_failed ? "true" : "false") << ",\n";
  out << "  \"static_dcl\": {\"dex\": "
      << (report.static_dcl.dex_dcl ? "true" : "false")
      << ", \"native\": " << (report.static_dcl.native_dcl ? "true" : "false")
      << "},\n";
  out << "  \"obfuscation\": {"
      << "\"lexical\": " << (report.obfuscation.lexical ? "true" : "false")
      << ", \"reflection\": "
      << (report.obfuscation.reflection ? "true" : "false")
      << ", \"native\": "
      << (report.obfuscation.native_code ? "true" : "false")
      << ", \"dex_encryption\": "
      << (report.obfuscation.dex_encryption ? "true" : "false")
      << ", \"anti_decompilation\": "
      << (report.obfuscation.anti_decompilation ? "true" : "false") << "},\n";
  out << "  \"status\": " << quoted(dynamic_status_name(report.status))
      << ",\n";
  if (!report.crash_message.empty()) {
    out << "  \"crash_message\": " << quoted(report.crash_message) << ",\n";
  }
  out << "  \"storage_recovered\": "
      << (report.storage_recovered ? "true" : "false") << ",\n";

  out << "  \"events\": [\n";
  for (std::size_t i = 0; i < report.events.size(); ++i) {
    write_event(out, report.events[i], "    ");
    out << (i + 1 < report.events.size() ? ",\n" : "\n");
  }
  out << "  ],\n";

  out << "  \"binaries\": [\n";
  for (std::size_t i = 0; i < report.binaries.size(); ++i) {
    write_binary(out, report.binaries[i], "    ");
    out << (i + 1 < report.binaries.size() ? ",\n" : "\n");
  }
  out << "  ],\n";

  out << "  \"vulnerabilities\": [";
  for (std::size_t i = 0; i < report.vulns.size(); ++i) {
    const auto& v = report.vulns[i];
    if (i != 0) out << ", ";
    out << "{\"kind\": " << quoted(code_kind_name(v.kind))
        << ", \"category\": " << quoted(vuln_category_name(v.category))
        << ", \"path\": " << quoted(v.path) << "}";
  }
  out << "]\n";
  out << "}\n";
  return out.str();
}

}  // namespace dydroid::core
