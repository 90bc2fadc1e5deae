// DCL event log records and call-site / responsible-entity classification
// (paper §III-B, Figure 2).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/blob.hpp"
#include "support/bytes.hpp"
#include "support/hash.hpp"
#include "vm/stack_trace.hpp"

namespace dydroid::core {

enum class CodeKind { Dex, Native };

std::string_view code_kind_name(CodeKind kind);

/// Who launched the DCL: the app developer's own code or a bundled
/// third-party SDK/library (paper Table IV).
enum class Entity { Own, ThirdParty };

std::string_view entity_name(Entity entity);

/// One logged DCL event.
struct DclEvent {
  CodeKind kind = CodeKind::Dex;
  std::vector<std::string> paths;  // files named by the load
  std::string optimized_dir;       // odex output dir (DexClassLoader only)
  std::string call_site_class;     // first non-framework frame (Fig. 2)
  Entity entity = Entity::ThirdParty;
  bool system_binary = false;      // /system/lib — logged, out of scope
  /// True when the app hashed a file (integrity verification) before this
  /// load — such apps are excluded from the code-injection findings.
  bool integrity_check_before = false;
  vm::StackTrace trace;
};

/// A dynamically loaded binary captured by the interceptor. `bytes` is a
/// refcounted snapshot view: VFS files are immutable Blobs replaced whole
/// on write, so holding the view IS the snapshot — no copy needed.
/// `digest` is the payload's content identity (support/hash.hpp): the
/// verdict memo, the corpus dedup table and the JSON report all read it.
/// Set both through set_bytes(), the one place a payload's SHA-256 is taken.
struct InterceptedBinary {
  CodeKind kind = CodeKind::Dex;
  std::string path;
  support::Blob bytes;
  support::Sha256Digest digest;  // SHA-256 of `bytes`
  std::string call_site_class;
  Entity entity = Entity::ThirdParty;

  /// Take `payload` as the binary's bytes, and its SHA-256 as its digest.
  void set_bytes(support::Blob payload);
};

/// Walk a stack trace from the innermost frame past framework classes to
/// the call-site class (paper: "the top element of the stack trace is the
/// call site class"). Returns empty when only framework frames exist.
std::string call_site_of(const vm::StackTrace& trace);

/// Own vs. third-party: the call-site class's package is (a subpackage of)
/// the application package.
Entity classify_entity(std::string_view call_site_class,
                       std::string_view app_package);

}  // namespace dydroid::core
