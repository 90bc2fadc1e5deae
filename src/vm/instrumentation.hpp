// Framework instrumentation — the "modified Android framework" of §III-B.
//
// The VM calls these observers at exactly the paper's mediation points:
//   * DexClassLoader / PathClassLoader constructors   (bytecode DCL)
//   * Runtime/System load(), loadLibrary(), load0()   (native DCL)
//   * java.io.File delete() / renameTo()              (interception mutex)
//   * java.net.URL construction, stream read/write    (download tracker)
// DyDroid's DCL logger, code interceptor and download tracker are built by
// registering callbacks here; the VM itself stays policy-free.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "vm/stack_trace.hpp"
#include "vm/value.hpp"

namespace dydroid::vm {

/// Node kinds in the download-tracker flow graph (paper Table I).
enum class FlowNodeKind : std::uint8_t {
  Url,
  InputStream,
  Buffer,
  OutputStream,
  File,
};

std::string_view flow_node_kind_name(FlowNodeKind kind);

/// A flow-graph node: an object identified by type + hash code, or a file
/// identified by its path.
struct FlowNode {
  FlowNodeKind kind = FlowNodeKind::Buffer;
  std::uint64_t object_id = 0;  // VM object id; 0 for file nodes
  std::string label;            // URL spec for Url nodes, path for File nodes
};

/// Kind of class loader whose constructor fired.
enum class LoaderKind : std::uint8_t { DexClassLoader, PathClassLoader };

struct Instrumentation {
  /// A DexClassLoader/PathClassLoader was constructed. `dex_path` is the
  /// ':'-separated file list; `optimized_dir` is where odex output goes
  /// (empty for PathClassLoader). The trace is the observer's to keep.
  std::function<void(LoaderKind kind, const std::string& dex_path,
                     const std::string& optimized_dir, StackTrace trace)>
      on_dex_load;

  /// Native code was loaded via load()/loadLibrary(); `path` is the resolved
  /// library file path. The trace is the observer's to keep.
  std::function<void(const std::string& path, StackTrace trace)>
      on_native_load;

  /// File.delete()/renameTo() is about to run. Return false to make the
  /// operation silently fail (the paper's mutual-exclusion trick that keeps
  /// temporary ad-SDK payloads on disk for interception).
  std::function<bool(const std::string& path)> allow_file_delete;
  std::function<bool(const std::string& from, const std::string& to)>
      allow_file_rename;

  /// new URL(spec) — `node` is the Url flow node.
  std::function<void(const FlowNode& node)> on_url_created;

  /// A Table-I flow edge was observed (URL->InputStream, InputStream->Buffer,
  /// Buffer->OutputStream, OutputStream->File, File->File, File->InputStream,
  /// stream wrapping, ...).
  std::function<void(const FlowNode& from, const FlowNode& to)> on_flow;

  /// A file's bytes hit the filesystem through an app-visible API.
  std::function<void(const std::string& path)> on_file_written;

  /// Every framework API invocation (class, method) — used by tests and by
  /// behavior verification (notifications, sms, ptrace, ...).
  std::function<void(std::string_view cls, std::string_view method)>
      on_api_call;

  // --- dynamic taint (TaintDroid/Uranine-style, an alternative privacy
  // --- backend the paper's related work contrasts with static analysis) ---

  /// Called before a framework intrinsic runs, with the concrete argument
  /// values (dynamic analysis sees real URIs and payloads). Used to record
  /// tainted data reaching sinks. The values are valid during the call.
  std::function<void(std::string_view cls, std::string_view method,
                     std::span<const Value> args)>
      on_intrinsic_call;

  /// Taint bits to attach to an intrinsic's result (privacy sources).
  /// Returning 0 leaves only the default conservative pass-through of the
  /// arguments' taint.
  std::function<std::uint32_t(std::string_view cls, std::string_view method,
                              std::span<const Value> args)>
      taint_source;
};

}  // namespace dydroid::vm
