#include "vm/frameworks.hpp"

#include <algorithm>
#include <array>

#include "apk/apk.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"
#include "vm/vm.hpp"

namespace dydroid::vm {

std::string_view flow_node_kind_name(FlowNodeKind kind) {
  switch (kind) {
    case FlowNodeKind::Url: return "URL";
    case FlowNodeKind::InputStream: return "InputStream";
    case FlowNodeKind::Buffer: return "Buffer";
    case FlowNodeKind::OutputStream: return "OutputStream";
    case FlowNodeKind::File: return "File";
  }
  return "?";
}

namespace {

using support::Bytes;

// The native state framework objects carry (loader and reflection handles,
// streams, buffers) is declared with the object model in vm/value.hpp.

constexpr std::size_t kReadChunk = 4096;
constexpr std::string_view kBufferClass = "byte[]";

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

/// Field `name` of a framework object: framework objects keep their
/// app-visible state in ordinary fields.
Value field(Vm& vm, ObjRef obj, std::string_view name) {
  return obj->get_field(vm.intern(name));
}
void set_field(Vm& vm, ObjRef obj, std::string_view name, Value value) {
  obj->set_field(vm.intern(name), value);
}

FlowNode obj_node(FlowNodeKind kind, ObjRef obj, std::string label = {}) {
  return FlowNode{kind, obj->id(), std::move(label)};
}

FlowNode file_node(std::string path) {
  return FlowNode{FlowNodeKind::File, 0, std::move(path)};
}

/// Resolve a java.io.File argument that may be a File object or a string.
std::string path_of(Vm& vm, const Value& v) {
  if (v.is_str()) return v.as_str();
  if (v.is_obj()) {
    const auto path = field(vm, v.as_obj(), "path");
    if (path.is_str()) return path.as_str();
  }
  throw vm.make_exception("IllegalArgumentException: expected path");
}

const Value& arg(Vm& vm, std::span<const Value> args, std::size_t i) {
  if (i >= args.size()) {
    throw vm.make_exception("IllegalArgumentException: missing argument " +
                            std::to_string(i));
  }
  return args[i];
}

ObjRef make_buffer(Vm& vm, Bytes data) {
  auto buf = vm.make_object(kBufferClass);
  buf->native_state() = BufferState{std::move(data)};
  return buf;
}

Bytes& buffer_bytes(Vm& vm, const Value& v) {
  if (!v.is_obj()) {
    throw vm.make_exception("IllegalArgumentException: expected buffer");
  }
  auto* state = v.as_obj()->native<BufferState>();
  if (state == nullptr) {
    throw vm.make_exception("IllegalArgumentException: not a buffer");
  }
  return state->data;
}

/// close(), connect() and the lifecycle methods app components inherit.
Value noop(Vm&, std::span<const Value>) { return Value(); }

LoaderState* loader_of(Vm& vm, const Value& v) {
  if (v.is_obj()) {
    if (const auto* h = v.as_obj()->native<LoaderHandle>()) return h->loader;
  }
  throw vm.make_exception("IllegalArgumentException: not a class loader");
}

/// Recursively read one chunk from a (possibly wrapped) input stream. The
/// wrapper chain is bounded like the call stack, so a stream that wraps
/// itself, directly or through a cycle, raises instead of recursing forever.
Value stream_read(Vm& vm, ObjRef stream, int depth = 0) {
  auto* state = stream->native<InputStreamState>();
  if (state == nullptr) {
    throw vm.make_exception("IOException: not an input stream");
  }
  if (state->inner != nullptr) {
    if (depth >= vm.limits().max_call_depth) {
      throw vm.make_exception("StackOverflowError: input stream wrapper chain");
    }
    // Wrapper: pull a chunk from the wrapped stream; flows Inner->Wrapper
    // were emitted at construction, Wrapper->Buffer is emitted below by the
    // caller on our own node.
    auto chunk = stream_read(vm, state->inner, depth + 1);
    if (chunk.is_null()) return chunk;
    vm.emit_flow(obj_node(FlowNodeKind::InputStream, state->inner),
                 obj_node(FlowNodeKind::InputStream, stream));
    vm.emit_flow(obj_node(FlowNodeKind::InputStream, stream),
                 obj_node(FlowNodeKind::Buffer, chunk.as_obj()));
    return chunk;
  }
  if (state->pos >= state->data.size()) return Value();  // EOF -> null
  const auto n = std::min(kReadChunk, state->data.size() - state->pos);
  Bytes chunk(state->data.begin() + static_cast<std::ptrdiff_t>(state->pos),
              state->data.begin() + static_cast<std::ptrdiff_t>(state->pos + n));
  state->pos += n;
  auto buf = make_buffer(vm, std::move(chunk));
  vm.emit_flow(obj_node(FlowNodeKind::InputStream, stream),
               obj_node(FlowNodeKind::Buffer, buf));
  return Value(buf);
}

ObjRef make_input_stream(Vm& vm, std::string_view cls, support::Blob data) {
  auto obj = vm.make_object(cls);
  obj->native_state() = InputStreamState{std::move(data), 0, nullptr};
  return obj;
}

std::string url_of_connection(Vm& vm, ObjRef conn) {
  const auto url = field(vm, conn, "url");
  if (!url.is_str()) throw vm.make_exception("IOException: bad connection");
  return url.as_str();
}

FlowNode url_node_of_connection(Vm& vm, ObjRef conn) {
  const auto id = field(vm, conn, "url_obj_id");
  const auto url = field(vm, conn, "url");
  return FlowNode{FlowNodeKind::Url,
                  static_cast<std::uint64_t>(id.is_int() ? id.as_int() : 0),
                  url.is_str() ? url.as_str() : std::string()};
}

// ---------------------------------------------------------------------------
// Registration groups.
// ---------------------------------------------------------------------------

void install_loaders(FrameworkTable& fw) {
  fw.add_class("java.lang.ClassLoader");
  fw.add_class("dalvik.system.DexClassLoader", "java.lang.ClassLoader");
  fw.add_class("dalvik.system.PathClassLoader", "java.lang.ClassLoader");

  fw.add_intrinsic(
      "dalvik.system.DexClassLoader", "<init>",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& self = arg(v, args, 0).as_obj();
        const auto dex_path = arg(v, args, 1).as_str();
        const auto opt_dir =
            args.size() > 2 && args[2].is_str() ? args[2].as_str() : "";
        LoaderState* parent = nullptr;
        if (args.size() > 4 && args[4].is_obj()) {
          parent = loader_of(v, args[4]);
        }
        auto* loader = v.create_runtime_loader(LoaderKind::DexClassLoader,
                                               dex_path, opt_dir, parent);
        self->native_state() = LoaderHandle{loader};
        return Value();
      });

  fw.add_intrinsic(
      "dalvik.system.PathClassLoader", "<init>",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& self = arg(v, args, 0).as_obj();
        const auto dex_path = arg(v, args, 1).as_str();
        LoaderState* parent = nullptr;
        if (args.size() > 2 && args[2].is_obj()) {
          parent = loader_of(v, args[2]);
        }
        auto* loader = v.create_runtime_loader(LoaderKind::PathClassLoader,
                                               dex_path, "", parent);
        self->native_state() = LoaderHandle{loader};
        return Value();
      });

  fw.add_intrinsic(
      "java.lang.ClassLoader", "loadClass",
      [](Vm& v, std::span<const Value> args) -> Value {
        auto* loader = loader_of(v, arg(v, args, 0));
        const auto& name = arg(v, args, 1).as_str();
        auto* rc = v.load_class(loader, name);
        auto cls_obj = v.make_object("java.lang.Class");
        cls_obj->native_state() = ClassHandle{rc};
        set_field(v, cls_obj, "name", Value::of_str(name));
        return Value(cls_obj);
      });

  fw.add_class("java.lang.Class");
  fw.add_intrinsic(
      "java.lang.Class", "newInstance",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto* h = arg(v, args, 0).as_obj()->native<ClassHandle>();
        if (h == nullptr || h->cls == nullptr) {
          throw v.make_exception("InstantiationException");
        }
        auto* rc = h->cls;
        auto obj = v.make_object(rc);
        if (!rc->is_framework()) {
          if (const auto* init = rc->def()->find_method("<init>");
              init != nullptr && init->num_params == 1) {
            const Value self(obj);
            v.invoke(rc, *init, {&self, 1});
          }
        }
        return Value(obj);
      });
  fw.add_intrinsic(
      "java.lang.Class", "getName",
      [](Vm& v, std::span<const Value> args) -> Value {
        return field(v, arg(v, args, 0).as_obj(), "name");
      });
  fw.add_intrinsic(
      "java.lang.Class", "getMethod",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto* h = arg(v, args, 0).as_obj()->native<ClassHandle>();
        const auto& name = arg(v, args, 1).as_str();
        if (h == nullptr || h->cls == nullptr || h->cls->is_framework()) {
          throw v.make_exception("NoSuchMethodException: " + name);
        }
        const auto* m = h->cls->def()->find_method(name);
        if (m == nullptr) {
          throw v.make_exception("NoSuchMethodException: " + name);
        }
        auto method_obj = v.make_object("java.lang.reflect.Method");
        method_obj->native_state() = MethodHandle{h->cls, m};
        set_field(v, method_obj, "name", Value::of_str(name));
        return Value(method_obj);
      });
  fw.add_intrinsic(
      "java.lang.Class", "forName",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& name = arg(v, args, 0).as_str();
        auto* rc = v.load_class(v.current_loader(), name);
        auto cls_obj = v.make_object("java.lang.Class");
        cls_obj->native_state() = ClassHandle{rc};
        set_field(v, cls_obj, "name", Value::of_str(name));
        return Value(cls_obj);
      });

  fw.add_class("java.lang.reflect.Method");
  fw.add_intrinsic(
      "java.lang.reflect.Method", "invoke",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto* h = arg(v, args, 0).as_obj()->native<MethodHandle>();
        if (h == nullptr || h->method == nullptr) {
          throw v.make_exception("IllegalArgumentException: bad Method");
        }
        // The receiver (instance methods only), then the arguments: never
        // more than the invoke instruction that reached here passed.
        std::array<Value, dex::kMaxInvokeArgs> call_args;
        std::size_t n = 0;
        if (!h->method->is_static()) call_args[n++] = arg(v, args, 1);
        for (std::size_t i = 2; i < args.size() && n < call_args.size(); ++i) {
          call_args[n++] = args[i];
        }
        return v.invoke(h->cls, *h->method, {call_args.data(), n});
      });
}

void install_native_loading(FrameworkTable& fw) {
  fw.add_class("java.lang.System");
  fw.add_class("java.lang.Runtime");

  auto load_by_name = [](Vm& v, std::span<const Value> args,
                         std::size_t idx) -> Value {
    v.load_native_library_by_name(arg(v, args, idx).as_str());
    return Value();
  };
  auto load_by_path = [](Vm& v, std::span<const Value> args,
                         std::size_t idx) -> Value {
    v.load_native_library(arg(v, args, idx).as_str());
    return Value();
  };

  fw.add_intrinsic("java.lang.System", "loadLibrary",
                   [load_by_name](Vm& v, std::span<const Value> a) {
                     return load_by_name(v, a, 0);
                   });
  fw.add_intrinsic("java.lang.System", "load",
                   [load_by_path](Vm& v, std::span<const Value> a) {
                     return load_by_path(v, a, 0);
                   });
  fw.add_intrinsic(
      "java.lang.System", "mapLibraryName",
      [](Vm& v, std::span<const Value> args) -> Value {
        return v.make_string(
            nativebin::map_library_name(arg(v, args, 0).as_str()));
      });
  fw.add_intrinsic("java.lang.System", "currentTimeMillis",
                   [](Vm& v, std::span<const Value>) -> Value {
                     return Value(v.device().services().current_time_ms());
                   });

  fw.add_intrinsic("java.lang.Runtime", "getRuntime",
                   [](Vm& v, std::span<const Value>) -> Value {
                     return Value(v.make_object("java.lang.Runtime"));
                   });
  // Instance forms: receiver in args[0], operand in args[1].
  fw.add_intrinsic("java.lang.Runtime", "loadLibrary",
                   [load_by_name](Vm& v, std::span<const Value> a) {
                     return load_by_name(v, a, 1);
                   });
  fw.add_intrinsic("java.lang.Runtime", "load",
                   [load_by_path](Vm& v, std::span<const Value> a) {
                     return load_by_path(v, a, 1);
                   });
  // Android 7.1 adds Runtime.load0 (paper §III-B): one extra hook adapts the
  // system to the latest OS.
  fw.add_intrinsic("java.lang.Runtime", "load0",
                   [load_by_path](Vm& v, std::span<const Value> a) {
                     return load_by_path(v, a, 1);
                   });

  fw.add_class("java.lang.Thread");
  fw.add_intrinsic("java.lang.Thread", "sleep",
                   [](Vm& v, std::span<const Value> args) -> Value {
                     v.device().services().advance_ms(
                         args.empty() ? 0 : arg(v, args, 0).as_int());
                     return Value();
                   });
}

void install_files(FrameworkTable& fw) {
  fw.add_class("java.io.File");
  fw.add_intrinsic(
      "java.io.File", "<init>",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& self = arg(v, args, 0).as_obj();
        std::string path;
        if (args.size() >= 3) {
          path = path_of(v, args[1]) + "/" + args[2].as_str();
        } else {
          path = path_of(v, arg(v, args, 1));
        }
        set_field(v, self, "path", v.make_string(std::move(path)));
        return Value();
      });
  fw.add_intrinsic("java.io.File", "getPath",
                   [](Vm& v, std::span<const Value> args) -> Value {
                     return field(v, arg(v, args, 0).as_obj(), "path");
                   });
  fw.add_intrinsic("java.io.File", "getAbsolutePath",
                   [](Vm& v, std::span<const Value> args) -> Value {
                     return field(v, arg(v, args, 0).as_obj(), "path");
                   });
  fw.add_intrinsic(
      "java.io.File", "exists",
      [](Vm& v, std::span<const Value> args) -> Value {
        return Value(
            v.device().vfs().exists(path_of(v, arg(v, args, 0))) ? 1 : 0);
      });
  fw.add_intrinsic(
      "java.io.File", "length",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto data =
            v.device().vfs().read_file(path_of(v, arg(v, args, 0)));
        return Value(
            static_cast<std::int64_t>(data.has_value() ? data->size() : 0));
      });
  fw.add_intrinsic("java.io.File", "mkdirs",
                   [](Vm&, std::span<const Value>) -> Value {
                     return Value(1);  // directories are implicit
                   });
  fw.add_intrinsic(
      "java.io.File", "delete",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto path = path_of(v, arg(v, args, 0));
        auto& hooks = v.instrumentation();
        if (hooks.allow_file_delete && !hooks.allow_file_delete(path)) {
          // Instrumented java.io.File: silently fail (paper §III-B) so the
          // interceptor can still copy the binary.
          return Value(0);
        }
        const auto status =
            v.device().vfs().delete_file(v.principal(), path);
        return Value(status ? 1 : 0);
      });
  fw.add_intrinsic(
      "java.io.File", "renameTo",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto from = path_of(v, arg(v, args, 0));
        const auto to = path_of(v, arg(v, args, 1));
        auto& hooks = v.instrumentation();
        if (hooks.allow_file_rename && !hooks.allow_file_rename(from, to)) {
          return Value(0);
        }
        const auto status =
            v.device().vfs().rename(v.principal(), from, to);
        if (status) {
          v.emit_flow(file_node(from), file_node(to));
          if (hooks.on_file_written) hooks.on_file_written(to);
        }
        return Value(status ? 1 : 0);
      });

  // Input streams.
  fw.add_class("java.io.InputStream");
  fw.add_class("java.io.FileInputStream", "java.io.InputStream");
  fw.add_class("java.io.BufferedInputStream", "java.io.InputStream");
  fw.add_intrinsic(
      "java.io.FileInputStream", "<init>",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& self = arg(v, args, 0).as_obj();
        const auto path = path_of(v, arg(v, args, 1));
        auto data = v.read_file_or_throw(path);
        self->native_state() = InputStreamState{std::move(data), 0, nullptr};
        v.emit_flow(file_node(path),
                    obj_node(FlowNodeKind::InputStream, self));
        return Value();
      });
  fw.add_intrinsic(
      "java.io.BufferedInputStream", "<init>",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& self = arg(v, args, 0).as_obj();
        const auto& inner = arg(v, args, 1).as_obj();
        self->native_state() = InputStreamState{{}, 0, inner};
        v.emit_flow(obj_node(FlowNodeKind::InputStream, inner),
                    obj_node(FlowNodeKind::InputStream, self));
        return Value();
      });
  fw.add_intrinsic(
      "java.io.InputStream", "read",
      [](Vm& v, std::span<const Value> args) -> Value {
        return stream_read(v, arg(v, args, 0).as_obj());
      });
  fw.add_intrinsic("java.io.InputStream", "close", noop);

  // Output streams.
  fw.add_class("java.io.OutputStream");
  fw.add_class("java.io.FileOutputStream", "java.io.OutputStream");
  fw.add_intrinsic(
      "java.io.FileOutputStream", "<init>",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& self = arg(v, args, 0).as_obj();
        const auto path = path_of(v, arg(v, args, 1));
        self->native_state() = OutputStreamState{path, false, "", {}};
        return Value();
      });
  fw.add_intrinsic(
      "java.io.OutputStream", "write",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& self = arg(v, args, 0).as_obj();
        auto* state = self->native<OutputStreamState>();
        if (state == nullptr) {
          throw v.make_exception("IOException: not an output stream");
        }
        const auto& chunk = buffer_bytes(v, arg(v, args, 1));
        v.emit_flow(obj_node(FlowNodeKind::Buffer, arg(v, args, 1).as_obj()),
                    obj_node(FlowNodeKind::OutputStream, self));
        state->written.insert(state->written.end(), chunk.begin(),
                              chunk.end());
        if (state->is_network) {
          v.record_event("net_write",
                         state->url + " bytes=" +
                             std::to_string(state->written.size()));
        } else {
          // Write-through so a concurrent load sees the full prefix, then
          // flow OutputStream -> File.
          v.write_file_as_app(state->path, state->written);
          v.emit_flow(obj_node(FlowNodeKind::OutputStream, self),
                      file_node(state->path));
        }
        return Value();
      });
  fw.add_intrinsic("java.io.OutputStream", "close", noop);
}

void install_network(FrameworkTable& fw) {
  fw.add_class("java.net.URL");
  fw.add_class("java.net.URLConnection");
  fw.add_class("java.net.HttpURLConnection", "java.net.URLConnection");
  fw.add_class("java.net.HttpsURLConnection", "java.net.HttpURLConnection");
  fw.add_class("java.net.FtpURLConnection", "java.net.URLConnection");

  fw.add_intrinsic(
      "java.net.URL", "<init>",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& self = arg(v, args, 0).as_obj();
        const auto& spec = arg(v, args, 1).as_str();
        set_field(v, self, "url", Value::of_str(spec));
        auto& hooks = v.instrumentation();
        if (hooks.on_url_created) {
          hooks.on_url_created(obj_node(FlowNodeKind::Url, self, spec));
        }
        return Value();
      });
  fw.add_intrinsic(
      "java.net.URL", "openConnection",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& self = arg(v, args, 0).as_obj();
        auto conn = v.make_object("java.net.HttpURLConnection");
        set_field(v, conn, "url", field(v, self, "url"));
        set_field(v, conn, "url_obj_id",
                        Value(static_cast<std::int64_t>(self->id())));
        return Value(conn);
      });

  auto open_input = [](Vm& v, const std::string& url, const FlowNode& url_node)
      -> Value {
    auto fetched = v.device().network().fetch(url);
    if (!fetched) {
      throw v.make_exception("IOException: " + fetched.error());
    }
    auto stream = make_input_stream(v, "java.io.FileInputStream",
                                    std::move(fetched).take());
    // The stream is network-sourced, not file-sourced; present it as a
    // plain InputStream node fed by the URL (Table I: URL -> InputStream).
    v.emit_flow(url_node, obj_node(FlowNodeKind::InputStream, stream));
    return Value(stream);
  };

  fw.add_intrinsic(
      "java.net.URL", "openStream",
      [open_input](Vm& v, std::span<const Value> args) -> Value {
        const auto& self = arg(v, args, 0).as_obj();
        const auto url = field(v, self, "url").as_str();
        return open_input(v, url, obj_node(FlowNodeKind::Url, self, url));
      });
  fw.add_intrinsic(
      "java.net.URLConnection", "getInputStream",
      [open_input](Vm& v, std::span<const Value> args) -> Value {
        const auto& conn = arg(v, args, 0).as_obj();
        return open_input(v, url_of_connection(v, conn),
                          url_node_of_connection(v, conn));
      });
  fw.add_intrinsic(
      "java.net.URLConnection", "getOutputStream",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& conn = arg(v, args, 0).as_obj();
        auto stream = v.make_object("java.io.FileOutputStream");
        stream->native_state() =
            OutputStreamState{"", true, url_of_connection(v, conn), {}};
        return Value(stream);
      });
  fw.add_intrinsic("java.net.URLConnection", "connect", noop);
  fw.add_intrinsic(
      "java.net.HttpURLConnection", "getResponseCode",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& conn = arg(v, args, 0).as_obj();
        auto fetched = v.device().network().fetch(url_of_connection(v, conn));
        return Value(fetched ? 200 : 404);
      });
}

void install_privacy_sources(FrameworkTable& fw) {
  fw.add_intrinsic("android.telephony.TelephonyManager", "getDeviceId",
                   [](Vm& v, std::span<const Value>) -> Value {
                     return v.make_string(v.device().services().imei());
                   });
  fw.add_intrinsic("android.telephony.TelephonyManager",
                   "getSubscriberId",
                   [](Vm& v, std::span<const Value>) -> Value {
                     return v.make_string(v.device().services().imsi());
                   });
  fw.add_intrinsic("android.telephony.TelephonyManager",
                   "getSimSerialNumber",
                   [](Vm& v, std::span<const Value>) -> Value {
                     return v.make_string(v.device().services().iccid());
                   });
  fw.add_intrinsic("android.telephony.TelephonyManager",
                   "getLine1Number",
                   [](Vm& v, std::span<const Value>) -> Value {
                     return v.make_string(
                         v.device().services().line1_number());
                   });
  fw.add_intrinsic(
      "android.location.LocationManager", "getLastKnownLocation",
      [](Vm& v, std::span<const Value>) -> Value {
        return v.make_string(v.device().services().last_known_location());
      });
  fw.add_intrinsic(
      "android.location.LocationManager", "isProviderEnabled",
      [](Vm& v, std::span<const Value>) -> Value {
        return Value(v.device().services().location_enabled() ? 1 : 0);
      });
  fw.add_intrinsic(
      "android.accounts.AccountManager", "getAccounts",
      [](Vm& v, std::span<const Value>) -> Value {
        return v.make_string(
            support::join(v.device().services().accounts(), ";"));
      });
  fw.add_intrinsic(
      "android.content.pm.PackageManager", "getInstalledApplications",
      [](Vm& v, std::span<const Value>) -> Value {
        return v.make_string(support::join(
            v.device().package_manager().installed_packages(), ";"));
      });
  fw.add_intrinsic(
      "android.content.pm.PackageManager", "getInstalledPackages",
      [](Vm& v, std::span<const Value>) -> Value {
        return v.make_string(support::join(
            v.device().package_manager().installed_packages(), ";"));
      });
  fw.add_intrinsic(
      "android.content.ContentResolver", "query",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& uri = arg(v, args, 0).as_str();
        return v.make_string(
            std::string(v.device().services().query_provider(uri)));
      });
}

void install_sinks_and_services(FrameworkTable& fw) {
  const auto log = [](Vm& v, std::span<const Value> args) -> Value {
    v.record_event("log", (args.empty() ? "" : args[0].display()) + ": " +
                              (args.size() > 1 ? args[1].display() : ""));
    return Value();
  };
  fw.add_intrinsic("android.util.Log", "d", log);
  fw.add_intrinsic("android.util.Log", "e", log);
  fw.add_intrinsic(
      "android.telephony.SmsManager", "sendTextMessage",
      [](Vm& v, std::span<const Value> args) -> Value {
        v.record_event("sms", (args.empty() ? "" : args[0].display()) + ": " +
                                  (args.size() > 1 ? args[1].display() : ""));
        return Value();
      });
  fw.add_intrinsic(
      "android.app.NotificationManager", "notify",
      [](Vm& v, std::span<const Value> args) -> Value {
        v.record_event("notification",
                       args.empty() ? "" : args[0].display());
        return Value();
      });
  fw.add_intrinsic(
      "com.android.launcher.Shortcut", "install",
      [](Vm& v, std::span<const Value> args) -> Value {
        v.record_event("shortcut", args.empty() ? "" : args[0].display());
        return Value();
      });
  fw.add_intrinsic(
      "android.provider.Browser", "setHomepage",
      [](Vm& v, std::span<const Value> args) -> Value {
        v.record_event("homepage", args.empty() ? "" : args[0].display());
        return Value();
      });

  fw.add_intrinsic(
      "android.net.ConnectivityManager", "isConnected",
      [](Vm& v, std::span<const Value>) -> Value {
        return Value(v.device().services().has_connectivity() ? 1 : 0);
      });
  fw.add_intrinsic(
      "android.provider.Settings", "isAirplaneModeOn",
      [](Vm& v, std::span<const Value>) -> Value {
        return Value(v.device().services().airplane_mode() ? 1 : 0);
      });
  fw.add_intrinsic(
      "android.net.wifi.WifiManager", "isWifiEnabled",
      [](Vm& v, std::span<const Value>) -> Value {
        return Value(v.device().services().wifi_enabled() ? 1 : 0);
      });
  fw.add_intrinsic(
      "android.os.Environment", "getExternalStorageDirectory",
      [](Vm& v, std::span<const Value>) -> Value {
        return v.make_string(std::string(os::kExternalStorageDir));
      });

  // Context conveniences (receiver optional; always answer for the host app).
  fw.add_class("android.content.Context");
  fw.add_class("android.app.Activity", "android.content.Context");
  fw.add_class("android.app.Application", "android.content.Context");
  fw.add_class("android.app.Service", "android.content.Context");
  fw.add_class("android.content.BroadcastReceiver");
  fw.add_class("android.content.ContentProvider");

  fw.add_intrinsic(
      "android.content.Context", "getFilesDir",
      [](Vm& v, std::span<const Value>) -> Value {
        return v.make_string(os::internal_storage_dir(v.package()) + "/files");
      });
  fw.add_intrinsic(
      "android.content.Context", "getCacheDir",
      [](Vm& v, std::span<const Value>) -> Value {
        return v.make_string(os::internal_storage_dir(v.package()) + "/cache");
      });
  fw.add_intrinsic(
      "android.content.Context", "getPackageName",
      [](Vm& v, std::span<const Value>) -> Value {
        return Value::of_str(v.package());
      });
  // Package contexts: "an application can even use package contexts to
  // retrieve the classes contained in another application" (paper §II).
  // Returns a Context whose getClassLoader() is a PathClassLoader over the
  // other app's installed APK — mediated by the same loader hook.
  fw.add_intrinsic(
      "android.content.Context", "createPackageContext",
      [](Vm& v, std::span<const Value> args) -> Value {
        // Static-style: the target package is the last argument.
        const auto& pkg = arg(v, args, args.size() - 1).as_str();
        if (!v.device().package_manager().is_installed(pkg)) {
          throw v.make_exception("NameNotFoundException: " + pkg);
        }
        auto ctx = v.make_object("android.content.Context");
        set_field(v, ctx, "package", Value::of_str(pkg));
        return Value(ctx);
      });
  fw.add_intrinsic(
      "android.content.Context", "getClassLoader",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& self = arg(v, args, 0).as_obj();
        const auto pkg_field = field(v, self, "package");
        const auto pkg =
            pkg_field.is_str() ? pkg_field.as_str() : v.package();
        const auto apk_path = std::string(os::kAppDir) + "/" + pkg + ".apk";
        auto* loader = v.create_runtime_loader(LoaderKind::PathClassLoader,
                                               apk_path, "", nullptr);
        auto loader_obj = v.make_object("dalvik.system.PathClassLoader");
        loader_obj->native_state() = LoaderHandle{loader};
        return Value(loader_obj);
      });
  // Lifecycle no-ops inherited by app components.
  for (const auto* method : {"<init>", "setContentView", "onCreate",
                             "finish"}) {
    fw.add_intrinsic("android.app.Activity", method, noop);
  }
  fw.add_intrinsic("android.app.Application", "<init>", noop);
  fw.add_intrinsic("android.app.Service", "<init>", noop);

  // Assets: open an entry from the installed APK.
  fw.add_intrinsic(
      "android.content.res.AssetManager", "open",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& name = arg(v, args, 0).as_str();
        const auto apk_path =
            std::string(os::kAppDir) + "/" + v.package() + ".apk";
        const auto raw = v.read_file_or_throw(apk_path);
        apk::ApkFile pkg;
        try {
          pkg = apk::ApkFile::deserialize(raw);
        } catch (const support::ParseError& e) {
          throw v.make_exception(std::string("IOException: ") + e.what());
        }
        const auto entry =
            pkg.get(std::string(apk::kAssetsDirPrefix) + name);
        if (!entry.has_value()) {
          throw v.make_exception("FileNotFoundException: asset " + name);
        }
        auto stream =
            make_input_stream(v, "java.io.FileInputStream", *entry);
        v.emit_flow(file_node(apk_path),
                    obj_node(FlowNodeKind::InputStream, stream));
        return Value(stream);
      });
}

void install_strings_and_crypto(FrameworkTable& fw) {
  fw.add_intrinsic(
      "java.lang.String", "getBytes",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& s = arg(v, args, 0).as_str();
        return Value(make_buffer(v, support::to_bytes(s)));
      });
  fw.add_intrinsic(
      "java.lang.String", "valueOf",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& val = arg(v, args, 0);
        if (val.is_obj() && val.as_obj()->native<BufferState>() != nullptr) {
          return v.make_string(support::to_string(buffer_bytes(v, val)));
        }
        return v.make_string(val.display());
      });
  // Integrity verification primitive: apps that hash a file before loading
  // it are NOT code-injection vulnerable (paper: "manually confirmed that
  // even [the] developer fails to enforce integrity verification").
  fw.add_intrinsic(
      "java.security.MessageDigest", "digest",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& val = arg(v, args, 0);
        std::span<const std::uint8_t> data;
        support::Blob file;  // keeps a by-path read alive for the hash
        if (val.is_str()) {
          // Hash a file by path.
          file = v.read_file_or_throw(val.as_str());
          data = file;
        } else {
          data = buffer_bytes(v, val);
        }
        return Value(static_cast<std::int64_t>(support::fnv1a64(data)));
      });
}

void install_libc(FrameworkTable& fw) {
  fw.add_intrinsic(
      "libc", "ptrace",
      [](Vm& v, std::span<const Value> args) -> Value {
        v.record_event("ptrace", args.empty() ? "" : args[0].display());
        return Value(1);
      });
  fw.add_intrinsic("libc", "su",
                   [](Vm& v, std::span<const Value>) -> Value {
                     v.record_event("su", "");
                     return Value(1);
                   });
  fw.add_intrinsic(
      "libc", "hook_method",
      [](Vm& v, std::span<const Value> args) -> Value {
        v.record_event("hook", args.empty() ? "" : args[0].display());
        return Value(1);
      });
  fw.add_intrinsic(
      "libc", "exec",
      [](Vm& v, std::span<const Value> args) -> Value {
        v.record_event("exec", args.empty() ? "" : args[0].display());
        return Value(0);
      });
  // Stream-cipher "decryption" used by packer stubs: XOR with a repeating
  // key. Takes a buffer + key string, returns a new buffer.
  fw.add_intrinsic(
      "libc", "xor_decrypt",
      [](Vm& v, std::span<const Value> args) -> Value {
        const auto& data = buffer_bytes(v, arg(v, args, 0));
        const auto& key = arg(v, args, 1).as_str();
        if (key.empty()) {
          throw v.make_exception("IllegalArgumentException: empty key");
        }
        Bytes out(data.size());
        for (std::size_t i = 0; i < data.size(); ++i) {
          out[i] = data[i] ^ static_cast<std::uint8_t>(key[i % key.size()]);
        }
        return Value(make_buffer(v, std::move(out)));
      });
}

FrameworkTable build_framework() {
  FrameworkTable fw;
  install_loaders(fw);
  install_native_loading(fw);
  install_files(fw);
  install_network(fw);
  install_privacy_sources(fw);
  install_sinks_and_services(fw);
  install_strings_and_crypto(fw);
  install_libc(fw);
  return fw;
}

}  // namespace

void FrameworkTable::add_class(std::string_view name, std::string_view super) {
  auto& entry = classes_[std::string(name)];
  if (!super.empty()) entry.super = std::string(super);
}

void FrameworkTable::add_intrinsic(std::string_view cls,
                                   std::string_view method, Intrinsic fn) {
  classes_[std::string(cls)].methods[std::string(method)] = std::move(fn);
}

const Intrinsic* FrameworkTable::find(std::string_view cls,
                                      std::string_view method) const {
  for (int hop = 0; hop < 16; ++hop) {
    const auto it = classes_.find(cls);
    if (it == classes_.end()) break;
    const auto& entry = it->second;
    if (const auto m = entry.methods.find(method); m != entry.methods.end()) {
      return &m->second;
    }
    if (entry.super.empty()) break;
    cls = entry.super;
  }
  return nullptr;
}

bool FrameworkTable::has_class(std::string_view name) const {
  return classes_.contains(name) || is_framework_class(name);
}

const FrameworkTable kFramework = build_framework();

}  // namespace dydroid::vm
