#include "vm/vm.hpp"

#include "apk/apk.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace dydroid::vm {

namespace {

std::string basename_no_ext(std::string_view path) {
  const auto slash = path.rfind('/');
  auto base = slash == std::string_view::npos ? path : path.substr(slash + 1);
  const auto dot = base.rfind('.');
  if (dot != std::string_view::npos) base = base.substr(0, dot);
  return std::string(base);
}

// Java long arithmetic wraps in two's complement, where C++ signed overflow
// is undefined: compute in uint64_t and convert back.
std::uint64_t bits(const Value& v) {
  return static_cast<std::uint64_t>(v.as_int());
}
std::int64_t wrap(std::uint64_t v) { return static_cast<std::int64_t>(v); }

}  // namespace

VmException::VmException(const std::string& what, StackTrace trace,
                         bool budget)
    : std::runtime_error(what), trace_(std::move(trace)), budget_(budget) {
  support::count("vm.exceptions");
}

Vm::Vm(os::Device& device, AppContext app, VmLimits limits)
    : device_(&device), app_(std::move(app)), limits_(limits) {
  boot_loader_ = new_loader(LoaderType::Boot, nullptr);
}

Vm::~Vm() = default;

LoaderState* Vm::new_loader(LoaderType type, LoaderState* parent) {
  loaders_.push_back(std::make_unique<LoaderState>(type, parent));
  return loaders_.back().get();
}

void Vm::load_app(std::shared_ptr<const dex::DexFile> classes_dex) {
  app_loader_ = new_loader(LoaderType::AppPath, boot_loader_);
  app_loader_->add_dex(std::move(classes_dex));
}

ObjRef Vm::make_object(std::string_view class_name, RuntimeClass* rt) {
  auto obj = std::make_shared<VmObject>(next_object_id_++,
                                        std::string(class_name));
  obj->set_rt_class(rt);
  return obj;
}

StackTrace Vm::current_stack_trace() const {
  StackTrace trace;
  trace.reserve(frames_.size());
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    trace.push_back(StackTraceElement{std::string(it->class_name),
                                      std::string(it->method_name)});
  }
  return trace;
}

LoaderState* Vm::current_loader() const {
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    if (it->cls != nullptr) return it->cls->loader();
  }
  return app_loader_ != nullptr ? app_loader_ : boot_loader_;
}

Value Vm::call_intrinsic(const std::string& cls, const std::string& method,
                         const Intrinsic& fn, std::vector<Value> args) {
  frames_.push_back(Frame{nullptr, cls, method});
  if (hooks_.on_api_call) hooks_.on_api_call(cls, method);
  if (hooks_.on_intrinsic_call) hooks_.on_intrinsic_call(cls, method, args);
  struct Pop {
    std::vector<Frame>* f;
    ~Pop() { f->pop_back(); }
  } pop{&frames_};
  // Dynamic taint: intrinsics conservatively pass argument taint through to
  // their result; registered sources add their own label.
  std::uint32_t taint = 0;
  for (const auto& a : args) taint |= a.taint();
  if (hooks_.taint_source) taint |= hooks_.taint_source(cls, method, args);
  auto result = fn(*this, args);
  result.add_taint(taint);
  return result;
}

RuntimeClass* Vm::load_class(LoaderState* loader, std::string_view name) {
  if (auto* rc = find_class(loader, name)) return rc;
  throw make_exception("ClassNotFoundException: " + std::string(name));
}

RuntimeClass* Vm::find_class(LoaderState* loader, std::string_view name) {
  if (loader == nullptr) loader = current_loader();
  if (auto* cached = loader->cached(name)) return cached;
  // Parent-first delegation, walked as ART's class linker walks the loader
  // chain: a miss at any level is a null, never an exception.
  if (loader->parent() != nullptr) {
    if (auto* from_parent = find_class(loader->parent(), name)) {
      return from_parent;
    }
  }
  if (loader->type() == LoaderType::Boot) {
    if (!kFramework.has_class(name)) return nullptr;
    return loader->define(std::make_unique<RuntimeClass>(
        std::string(name), nullptr, nullptr, loader));
  }
  const auto found = loader->find_local(name);
  if (found.def == nullptr) return nullptr;
  return loader->define(std::make_unique<RuntimeClass>(
      std::string(name), found.dex, found.def, loader));
}

RuntimeClass* Vm::resolve_app_method(RuntimeClass* start,
                                     std::string_view method_name,
                                     const dex::Method** out) {
  RuntimeClass* rc = start;
  int hops = 0;
  while (rc != nullptr && !rc->is_framework() && hops++ < 32) {
    if (const auto* m = rc->def()->find_method(method_name)) {
      *out = m;
      return rc;
    }
    const auto& super = rc->super_name();
    if (super.empty()) break;
    rc = find_class(rc->loader(), super);
  }
  *out = nullptr;
  return nullptr;
}

ObjRef Vm::instantiate(std::string_view class_name) {
  RuntimeClass* rc = find_class(app_loader_, class_name);
  // Packed apps (DEX encryption) declare components that only exist in a
  // runtime-created loader: packers swizzle the component class loader, so
  // component resolution falls through to loaders the app created.
  for (const auto& loader : loaders_) {
    if (rc != nullptr) break;
    if (loader->type() == LoaderType::RuntimeDex ||
        loader->type() == LoaderType::RuntimePath) {
      rc = find_class(loader.get(), class_name);
    }
  }
  if (rc == nullptr) {
    throw make_exception("ClassNotFoundException: " + std::string(class_name));
  }
  auto obj = make_object(class_name, rc);
  const dex::Method* init = nullptr;
  if (auto* owner = resolve_app_method(rc, "<init>", &init);
      owner != nullptr && init->num_params == 1) {
    invoke(owner, *init, {Value(obj)});
  }
  return obj;
}

bool Vm::has_method(const ObjRef& receiver, std::string_view method_name) {
  if (receiver == nullptr || receiver->rt_class() == nullptr) return false;
  const dex::Method* m = nullptr;
  return resolve_app_method(receiver->rt_class(), method_name, &m) != nullptr;
}

Value Vm::call_method(const ObjRef& receiver, std::string_view method_name,
                      std::vector<Value> extra_args) {
  if (receiver == nullptr || receiver->rt_class() == nullptr) {
    throw make_exception("NullPointerException: call on null/framework obj");
  }
  const dex::Method* m = nullptr;
  auto* owner = resolve_app_method(receiver->rt_class(), method_name, &m);
  if (owner == nullptr) {
    throw make_exception("NoSuchMethodError: " +
                         receiver->class_name() + "." +
                         std::string(method_name));
  }
  std::vector<Value> args;
  args.reserve(1 + extra_args.size());
  args.emplace_back(receiver);
  for (auto& a : extra_args) args.push_back(std::move(a));
  return invoke(owner, *m, std::move(args));
}

Value Vm::call_static(std::string_view class_name,
                      std::string_view method_name, std::vector<Value> args) {
  auto* rc = load_class(app_loader_, class_name);
  const dex::Method* m =
      rc->is_framework() ? nullptr : rc->def()->find_method(method_name);
  if (m == nullptr) {
    throw make_exception("NoSuchMethodError: " + std::string(class_name) +
                         "." + std::string(method_name));
  }
  return invoke(rc, *m, std::move(args));
}

Value Vm::invoke(RuntimeClass* cls, const dex::Method& method,
                 std::vector<Value> args) {
  if (frames_.empty()) steps_ = 0;  // fresh entry: reset the ANR budget
  if (method.is_native()) {
    const auto symbol = find_native_symbol(method.name);
    if (!symbol.has_value()) {
      throw make_exception("UnsatisfiedLinkError: " + method.name);
    }
    return execute_body(symbol->cls, *symbol->method, std::move(args));
  }
  return execute_body(cls, method, std::move(args));
}

Value Vm::execute_body(RuntimeClass* cls, const dex::Method& method,
                       std::vector<Value> args) {
  if (static_cast<int>(frames_.size()) >= limits_.max_call_depth) {
    throw VmException("StackOverflowError", current_stack_trace(),
                      /*budget=*/true);
  }
  frames_.push_back(Frame{cls, cls->name(), method.name});
  struct Pop {
    std::vector<Frame>* f;
    ~Pop() { f->pop_back(); }
  } pop{&frames_};

  const auto& dexf = *cls->dex();
  std::vector<Value> regs(method.num_registers);
  for (std::size_t i = 0; i < args.size() && i < regs.size(); ++i) {
    regs[i] = std::move(args[i]);
  }
  Value last_result;

  // Active exception handlers: (message register, handler pc). Pushed by
  // TryEnter, popped by TryExit or when an exception dispatches.
  std::vector<std::pair<std::uint16_t, std::int32_t>> handlers;

  std::size_t pc = 0;
  while (pc < method.code.size()) {
    if (++steps_ > limits_.max_steps_per_entry) {
      throw VmException("ANR: step budget exhausted", current_stack_trace(),
                        /*budget=*/true);
    }
    const auto& ins = method.code[pc];
    using dex::Op;
    try {
    switch (ins.op) {
      case Op::Nop:
        break;
      case Op::ConstInt:
        regs[ins.a] = Value(ins.imm);
        break;
      case Op::ConstStr:
        regs[ins.a] = Value(dexf.string_at(ins.name));
        break;
      case Op::Move:
        regs[ins.a] = regs[ins.b];
        break;
      case Op::MoveResult:
        regs[ins.a] = last_result;
        break;
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::Div:
      case Op::Rem:
      case Op::Concat:
      case Op::CmpEq:
      case Op::CmpLt: {
        Value out;
        switch (ins.op) {
          case Op::Add:
            out = Value(wrap(bits(regs[ins.b]) + bits(regs[ins.c])));
            break;
          case Op::Sub:
            out = Value(wrap(bits(regs[ins.b]) - bits(regs[ins.c])));
            break;
          case Op::Mul:
            out = Value(wrap(bits(regs[ins.b]) * bits(regs[ins.c])));
            break;
          case Op::Div: {
            const auto d = regs[ins.c].as_int();
            if (d == 0) throw make_exception("ArithmeticException: / by zero");
            // Java wraps MIN / -1 back to MIN, where C++ traps.
            out = Value(d == -1 ? wrap(0 - bits(regs[ins.b]))
                                : regs[ins.b].as_int() / d);
            break;
          }
          case Op::Rem: {
            const auto d = regs[ins.c].as_int();
            if (d == 0) throw make_exception("ArithmeticException: % by zero");
            // x % -1 is 0, as x % 1 is, but MIN % -1 traps in C++.
            out = Value(regs[ins.b].as_int() % (d == -1 ? 1 : d));
            break;
          }
          case Op::Concat:
            out = Value(regs[ins.b].display() + regs[ins.c].display());
            break;
          case Op::CmpEq:
            out = Value(regs[ins.b].equals(regs[ins.c]) ? 1 : 0);
            break;
          default:
            out = Value(regs[ins.b].as_int() < regs[ins.c].as_int() ? 1 : 0);
            break;
        }
        // TaintDroid-style data-flow propagation through arithmetic.
        out.add_taint(regs[ins.b].taint() | regs[ins.c].taint());
        regs[ins.a] = std::move(out);
        break;
      }
      case Op::IfEqz:
        if (!regs[ins.a].truthy()) {
          pc = static_cast<std::size_t>(ins.target);
          continue;
        }
        break;
      case Op::IfNez:
        if (regs[ins.a].truthy()) {
          pc = static_cast<std::size_t>(ins.target);
          continue;
        }
        break;
      case Op::Goto:
        pc = static_cast<std::size_t>(ins.target);
        continue;
      case Op::NewInstance: {
        // Every loader chain ends at the boot loader, so a null here means
        // neither the app nor the framework has the class.
        const auto& name = dexf.string_at(ins.cls);
        auto* rt = find_class(cls->loader(), name);
        if (rt == nullptr) {
          throw make_exception("ClassNotFoundException: " + name);
        }
        regs[ins.a] =
            Value(make_object(name, rt->is_framework() ? nullptr : rt));
        break;
      }
      case Op::InvokeStatic:
      case Op::InvokeVirtual:
        last_result = dispatch_invoke(cls, dexf, ins, regs);
        break;
      case Op::IGet: {
        const auto& obj = regs[ins.b];
        if (!obj.is_obj() || obj.as_obj() == nullptr) {
          throw make_exception("NullPointerException: iget");
        }
        regs[ins.a] = obj.as_obj()->get_field(dexf.string_at(ins.name));
        break;
      }
      case Op::IPut: {
        const auto& obj = regs[ins.b];
        if (!obj.is_obj() || obj.as_obj() == nullptr) {
          throw make_exception("NullPointerException: iput");
        }
        obj.as_obj()->set_field(dexf.string_at(ins.name), regs[ins.a]);
        break;
      }
      case Op::SGet: {
        auto* rt = load_class(cls->loader(), dexf.string_at(ins.cls));
        regs[ins.a] = rt->get_static(dexf.string_at(ins.name));
        break;
      }
      case Op::SPut: {
        auto* rt = load_class(cls->loader(), dexf.string_at(ins.cls));
        rt->set_static(dexf.string_at(ins.name), regs[ins.a]);
        break;
      }
      case Op::Return:
        return regs[ins.a];
      case Op::ReturnVoid:
        return Value();
      case Op::Throw:
        throw make_exception(regs[ins.a].display());
      case Op::TryEnter:
        handlers.emplace_back(ins.a, ins.target);
        break;
      case Op::TryExit:
        if (!handlers.empty()) handlers.pop_back();
        break;
    }
    } catch (const VmException& e) {
      // Budget violations are fatal by design: apps must not be able to
      // catch their way around the ANR/recursion guards.
      if (handlers.empty() || e.budget()) throw;
      const auto [reg, handler_pc] = handlers.back();
      handlers.pop_back();
      regs[reg] = Value(e.what());
      pc = static_cast<std::size_t>(handler_pc);
      continue;
    }
    ++pc;
  }
  return Value();
}

Value Vm::dispatch_invoke(RuntimeClass* caller_cls, const dex::DexFile& dexf,
                          const dex::Instruction& ins,
                          std::vector<Value>& regs) {
  const auto& cls_name = dexf.string_at(ins.cls);
  const auto& method_name = dexf.string_at(ins.name);
  std::vector<Value> args;
  args.reserve(ins.argc);
  for (std::uint8_t i = 0; i < ins.argc; ++i) args.push_back(regs[ins.args[i]]);

  // The framework class whose intrinsic serves the call, and the intrinsic;
  // the declared class unless virtual dispatch finds a closer one.
  const std::string* owner = &cls_name;
  const Intrinsic* fn = nullptr;
  if (ins.op == dex::Op::InvokeVirtual) {
    if (args.empty() || !args[0].is_obj() || args[0].as_obj() == nullptr) {
      throw make_exception("NullPointerException: invoke-virtual on null (" +
                           cls_name + "." + method_name + ")");
    }
    const auto& receiver = args[0].as_obj();
    if (auto* start = receiver->rt_class()) {
      const dex::Method* m = nullptr;
      if (auto* app_owner = resolve_app_method(start, method_name, &m)) {
        return invoke(app_owner, *m, std::move(args));
      }
    }
    // Framework object, or app class inheriting a framework method:
    // dispatch by the receiver's dynamic class first, then superclass walk,
    // then by the declared class.
    fn = kFramework.find(receiver->class_name(), method_name);
    if (fn != nullptr) {
      owner = &receiver->class_name();
    } else if (auto* rc = receiver->rt_class()) {
      // Walk to the nearest framework superclass name for intrinsic lookup.
      for (int hops = 0; rc != nullptr && !rc->is_framework() && hops < 32;
           ++hops) {
        const auto& super = rc->super_name();
        if (super.empty()) break;
        fn = kFramework.find(super, method_name);
        if (fn != nullptr) {
          owner = &super;
          break;
        }
        rc = find_class(rc->loader(), super);
      }
    }
  } else {
    // InvokeStatic: app classes first (through the caller's loader), then
    // framework intrinsics.
    auto* rt = find_class(caller_cls->loader(), cls_name);
    if (rt != nullptr && !rt->is_framework()) {
      if (const auto* m = rt->def()->find_method(method_name)) {
        return invoke(rt, *m, std::move(args));
      }
    }
  }
  if (fn == nullptr) fn = kFramework.find(cls_name, method_name);
  if (fn == nullptr) {
    throw make_exception("NoSuchMethodError: " + cls_name + "." + method_name);
  }
  return call_intrinsic(*owner, method_name, *fn, std::move(args));
}

LoaderState* Vm::create_runtime_loader(LoaderKind kind,
                                       const std::string& dex_path,
                                       const std::string& optimized_dir,
                                       LoaderState* parent) {
  if (hooks_.on_dex_load) {
    hooks_.on_dex_load(kind, dex_path, optimized_dir, current_stack_trace());
  }
  auto* loader = new_loader(kind == LoaderKind::DexClassLoader
                                ? LoaderType::RuntimeDex
                                : LoaderType::RuntimePath,
                            parent != nullptr ? parent : app_loader_);
  for (const auto& path : support::split(dex_path, ':')) {
    if (path.empty()) continue;
    const auto bytes = read_file_or_throw(path);
    std::shared_ptr<const dex::DexFile> parsed;
    try {
      if (apk::looks_like_apk(bytes)) {
        const auto pkg = apk::ApkFile::deserialize(bytes);
        auto inner = pkg.read_classes_dex();
        if (!inner.has_value()) {
          throw make_exception("IOException: no classes.dex in " + path);
        }
        parsed = std::make_shared<const dex::DexFile>(*std::move(inner));
      } else if (dex::looks_like_dex(bytes)) {
        parsed =
            std::make_shared<const dex::DexFile>(dex::DexFile::deserialize(bytes));
      } else {
        throw make_exception("IOException: not a dex/apk file: " + path);
      }
    } catch (const support::ParseError& e) {
      throw make_exception(std::string("IOException: bad dex: ") + e.what());
    }
    loader->add_dex(std::move(parsed));
    if (!optimized_dir.empty()) {
      // Emit the odex by-product; best-effort (a full disk must not crash
      // the load itself).
      const auto odex = optimized_dir + "/" + basename_no_ext(path) + ".odex";
      const auto status =
          device_->vfs().write_file(app_.principal(), odex, bytes);
      if (!status) record_event("odex_write_failed", status.error());
    }
  }
  return loader;
}

void Vm::load_native_library(const std::string& path) {
  if (hooks_.on_native_load) {
    hooks_.on_native_load(path, current_stack_trace());
  }
  if (path.starts_with(os::kSystemLibDir)) {
    // Trusted OS-vendor library: modelled as an opaque success.
    return;
  }
  for (const auto& loaded : natives_) {
    if (loaded->path == path) return;  // already linked
  }
  const auto bytes = read_file_or_throw(path);
  nativebin::NativeLibrary lib;
  try {
    lib = nativebin::NativeLibrary::deserialize(bytes);
  } catch (const support::ParseError& e) {
    throw make_exception(std::string("UnsatisfiedLinkError: ") + e.what());
  }
  auto* loader = new_loader(LoaderType::NativeLib, boot_loader_);
  auto holder = std::make_unique<LoadedNative>();
  holder->path = path;
  holder->lib = std::move(lib);
  holder->loader = loader;
  loader->add_dex(std::make_shared<const dex::DexFile>(
      holder->lib.code()));  // copy: loader owns an immutable snapshot
  natives_.push_back(std::move(holder));
}

void Vm::load_native_library_by_name(const std::string& name) {
  const auto file = nativebin::map_library_name(name);
  const auto app_lib =
      os::internal_storage_dir(app_.package()) + "/lib/" + file;
  if (device_->vfs().exists(app_lib)) {
    load_native_library(app_lib);
    return;
  }
  const auto sys_lib = std::string(os::kSystemLibDir) + "/" + file;
  if (device_->vfs().exists(sys_lib)) {
    load_native_library(sys_lib);
    return;
  }
  throw make_exception("UnsatisfiedLinkError: library not found: " + name);
}

std::optional<Vm::NativeSymbol> Vm::find_native_symbol(std::string_view name) {
  for (const auto& loaded : natives_) {
    const auto symbol = loaded->lib.find_symbol(name);
    if (symbol.has_value()) {
      auto* rc = load_class(loaded->loader, symbol->cls->name);
      // Locate the method inside the loader's snapshot (the lib's own
      // DexFile copy), not the original.
      const auto* m = rc->def()->find_method(name);
      if (m != nullptr) return NativeSymbol{rc, m};
    }
  }
  return std::nullopt;
}

void Vm::record_event(std::string kind, std::string detail) {
  events_.push_back(VmEvent{std::move(kind), std::move(detail)});
}

support::Blob Vm::read_file_or_throw(const std::string& path) {
  auto data = device_->vfs().read_file(path);
  if (!data.has_value()) {
    throw make_exception("FileNotFoundException: " + path);
  }
  return *std::move(data);
}

void Vm::write_file_as_app(const std::string& path, support::Bytes data) {
  const auto status =
      device_->vfs().write_file(app_.principal(), path, std::move(data));
  if (!status) {
    throw make_exception("IOException: " + status.error());
  }
  if (hooks_.on_file_written) hooks_.on_file_written(path);
}

void Vm::emit_flow(const FlowNode& from, const FlowNode& to) {
  if (hooks_.on_flow) hooks_.on_flow(from, to);
}

}  // namespace dydroid::vm
