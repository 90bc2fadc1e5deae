#include "core/report_codec.hpp"

#include <bit>
#include <cstdint>

#include "privacy/sources.hpp"
#include "support/error.hpp"

namespace dydroid::core {

namespace {

using support::ByteReader;
using support::ByteWriter;
using support::ParseError;

// ---- primitive helpers -----------------------------------------------------

void put_f64(ByteWriter& w, double v) {
  w.u64(std::bit_cast<std::uint64_t>(v));
}

double get_f64(ByteReader& r) { return std::bit_cast<double>(r.u64()); }

void put_bool(ByteWriter& w, bool v) { w.u8(v ? 1 : 0); }

bool get_bool(ByteReader& r) {
  const std::uint8_t v = r.u8();
  if (v > 1) throw ParseError("report codec: bool out of range");
  return v != 0;
}

/// Range-checked enum decode: `limit` is one past the last valid value.
template <typename E>
E get_enum(ByteReader& r, std::uint8_t limit, const char* what) {
  const std::uint8_t v = r.u8();
  if (v >= limit) {
    throw ParseError(std::string("report codec: bad ") + what + " value");
  }
  return static_cast<E>(v);
}

/// Decode a count field without trusting it for allocation: each element
/// consumes at least `min_element_bytes`, so any count that could not fit
/// in the remaining input is a lie (this is what keeps a bit-flipped count
/// from turning into a multi-GB reserve — see tests/fuzz_roundtrip_test).
std::size_t get_count(ByteReader& r, std::size_t min_element_bytes,
                      const char* what) {
  const std::uint32_t n = r.u32();
  if (min_element_bytes > 0 &&
      static_cast<std::size_t>(n) > r.remaining() / min_element_bytes) {
    throw ParseError(std::string("report codec: implausible ") + what +
                     " count");
  }
  return n;
}

// ---- stack traces ----------------------------------------------------------

void put_trace(ByteWriter& w, const vm::StackTrace& trace) {
  w.u32(static_cast<std::uint32_t>(trace.size()));
  for (const auto& frame : trace) {
    w.str(frame.class_name);
    w.str(frame.method_name);
  }
}

vm::StackTrace get_trace(ByteReader& r) {
  const std::size_t n = get_count(r, 8, "stack frame");
  vm::StackTrace trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    vm::StackTraceElement frame;
    frame.class_name = r.str();
    frame.method_name = r.str();
    trace.push_back(std::move(frame));
  }
  return trace;
}

// ---- DCL events ------------------------------------------------------------

void put_event(ByteWriter& w, const DclEvent& event) {
  w.u8(static_cast<std::uint8_t>(event.kind));
  w.u32(static_cast<std::uint32_t>(event.paths.size()));
  for (const auto& path : event.paths) w.str(path);
  w.str(event.optimized_dir);
  w.str(event.call_site_class);
  w.u8(static_cast<std::uint8_t>(event.entity));
  put_bool(w, event.system_binary);
  put_bool(w, event.integrity_check_before);
  put_trace(w, event.trace);
}

DclEvent get_event(ByteReader& r) {
  DclEvent event;
  event.kind = get_enum<CodeKind>(r, 2, "code kind");
  const std::size_t paths = get_count(r, 4, "path");
  event.paths.reserve(paths);
  for (std::size_t i = 0; i < paths; ++i) event.paths.push_back(r.str());
  event.optimized_dir = r.str();
  event.call_site_class = r.str();
  event.entity = get_enum<Entity>(r, 2, "entity");
  event.system_binary = get_bool(r);
  event.integrity_check_before = get_bool(r);
  event.trace = get_trace(r);
  return event;
}

// ---- intercepted binaries --------------------------------------------------

void put_binary(ByteWriter& w, const BinaryReport& binary) {
  w.u8(static_cast<std::uint8_t>(binary.binary.kind));
  w.str(binary.binary.path);
  w.blob(binary.binary.bytes);
  w.str(binary.binary.call_site_class);
  w.u8(static_cast<std::uint8_t>(binary.binary.entity));

  put_bool(w, binary.origin_url.has_value());
  if (binary.origin_url.has_value()) w.str(*binary.origin_url);

  put_bool(w, binary.malware.has_value());
  if (binary.malware.has_value()) {
    w.str(binary.malware->family);
    put_f64(w, binary.malware->score);
    w.str(binary.malware->matched_sample);
  }

  w.u32(static_cast<std::uint32_t>(binary.privacy.leaks.size()));
  for (const auto& leak : binary.privacy.leaks) {
    w.u8(static_cast<std::uint8_t>(leak.type));
    w.str(leak.sink_api);
    w.str(leak.sink_class);
    w.str(leak.sink_method);
  }
}

BinaryReport get_binary(ByteReader& r) {
  BinaryReport binary;
  binary.binary.kind = get_enum<CodeKind>(r, 2, "code kind");
  binary.binary.path = r.str();
  binary.binary.set_bytes(support::Blob::take(r.blob()));
  binary.binary.call_site_class = r.str();
  binary.binary.entity = get_enum<Entity>(r, 2, "entity");

  if (get_bool(r)) binary.origin_url = r.str();
  if (get_bool(r)) {
    malware::Detection detection;
    detection.family = r.str();
    detection.score = get_f64(r);
    detection.matched_sample = r.str();
    binary.malware = std::move(detection);
  }

  const std::size_t leaks = get_count(r, 13, "privacy leak");
  binary.privacy.leaks.reserve(leaks);
  for (std::size_t i = 0; i < leaks; ++i) {
    privacy::Leak leak;
    leak.type = get_enum<privacy::DataType>(
        r, static_cast<std::uint8_t>(privacy::kNumDataTypes), "data type");
    leak.sink_api = r.str();
    leak.sink_class = r.str();
    leak.sink_method = r.str();
    binary.privacy.leaks.push_back(std::move(leak));
  }
  return binary;
}

}  // namespace

void serialize_report(ByteWriter& w, const AppReport& report) {
  w.str(report.package);
  put_bool(w, report.decompile_failed);
  put_bool(w, report.static_dcl.dex_dcl);
  put_bool(w, report.static_dcl.native_dcl);
  put_bool(w, report.obfuscation.lexical);
  put_bool(w, report.obfuscation.reflection);
  put_bool(w, report.obfuscation.native_code);
  put_bool(w, report.obfuscation.dex_encryption);
  put_bool(w, report.obfuscation.anti_decompilation);
  w.i64(report.min_sdk);
  w.u8(static_cast<std::uint8_t>(report.status));
  w.str(report.crash_message);
  put_bool(w, report.storage_recovered);

  w.u32(static_cast<std::uint32_t>(report.events.size()));
  for (const auto& event : report.events) put_event(w, event);

  w.u32(static_cast<std::uint32_t>(report.binaries.size()));
  for (const auto& binary : report.binaries) put_binary(w, binary);

  w.u32(static_cast<std::uint32_t>(report.vm_events.size()));
  for (const auto& event : report.vm_events) {
    w.str(event.kind);
    w.str(event.detail);
  }

  w.u32(static_cast<std::uint32_t>(report.vulns.size()));
  for (const auto& vuln : report.vulns) {
    w.u8(static_cast<std::uint8_t>(vuln.kind));
    w.u8(static_cast<std::uint8_t>(vuln.category));
    w.str(vuln.path);
  }
}

AppReport deserialize_report(ByteReader& r) {
  AppReport report;
  report.package = r.str();
  report.decompile_failed = get_bool(r);
  report.static_dcl.dex_dcl = get_bool(r);
  report.static_dcl.native_dcl = get_bool(r);
  report.obfuscation.lexical = get_bool(r);
  report.obfuscation.reflection = get_bool(r);
  report.obfuscation.native_code = get_bool(r);
  report.obfuscation.dex_encryption = get_bool(r);
  report.obfuscation.anti_decompilation = get_bool(r);
  const std::int64_t min_sdk = r.i64();
  if (min_sdk < 0 || min_sdk > 0x7fffffff) {
    throw ParseError("report codec: min_sdk out of range");
  }
  report.min_sdk = static_cast<int>(min_sdk);
  report.status = get_enum<DynamicStatus>(r, 5, "dynamic status");
  report.crash_message = r.str();
  report.storage_recovered = get_bool(r);

  const std::size_t events = get_count(r, 16, "event");
  report.events.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    report.events.push_back(get_event(r));
  }

  const std::size_t binaries = get_count(r, 19, "binary");
  report.binaries.reserve(binaries);
  for (std::size_t i = 0; i < binaries; ++i) {
    report.binaries.push_back(get_binary(r));
  }

  const std::size_t vm_events = get_count(r, 8, "vm event");
  report.vm_events.reserve(vm_events);
  for (std::size_t i = 0; i < vm_events; ++i) {
    vm::VmEvent event;
    event.kind = r.str();
    event.detail = r.str();
    report.vm_events.push_back(std::move(event));
  }

  const std::size_t vulns = get_count(r, 6, "vulnerability");
  report.vulns.reserve(vulns);
  for (std::size_t i = 0; i < vulns; ++i) {
    VulnFinding vuln;
    vuln.kind = get_enum<CodeKind>(r, 2, "code kind");
    vuln.category = get_enum<VulnCategory>(r, 2, "vuln category");
    vuln.path = r.str();
    report.vulns.push_back(std::move(vuln));
  }
  return report;
}

}  // namespace dydroid::core
