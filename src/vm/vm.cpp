#include "vm/vm.hpp"

#include <algorithm>
#include <array>

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

Vm::Vm(os::Device& device, const manifest::Manifest& manifest,
       VmLimits limits)
    : device_(&device),
      manifest_(&manifest),
      principal_{manifest.package,
                 manifest.has_permission(manifest::kWriteExternalStorage)},
      limits_(limits),
      init_name_(names_.intern("<init>")) {
  boot_loader_ = new_loader(LoaderType::Boot, nullptr);
  frames_.reserve(16);
  stack_.reserve(256);
}

Vm::~Vm() = default;

LoaderState* Vm::new_loader(LoaderType type, LoaderState* parent) {
  return &loaders_.emplace(type, parent);
}

void Vm::load_app(std::shared_ptr<const dex::DexFile> classes_dex) {
  app_loader_ = new_loader(LoaderType::AppPath, boot_loader_);
  app_loader_->add_dex(std::move(classes_dex));
}

ObjRef Vm::make_object(std::string_view class_name) {
  const auto name = intern(class_name);
  return &objects_.emplace(objects_.size() + 1, name, names_.view(name),
                           nullptr);
}

ObjRef Vm::make_object(RuntimeClass* cls) {
  return &objects_.emplace(objects_.size() + 1, cls->name_id(), cls->name(),
                           cls->is_framework() ? nullptr : cls);
}

Value Vm::make_string(std::string s) {
  return Value::of_str(strings_.emplace_back(std::move(s)));
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

Value Vm::call_intrinsic(std::string_view cls, std::string_view method,
                         const Intrinsic& fn, std::span<const Value> args) {
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
  if (auto* rc = find_class(loader, intern(name))) return rc;
  throw make_exception("ClassNotFoundException: " + std::string(name));
}

RuntimeClass* Vm::find_class(LoaderState* loader, Name name) {
  if (loader == nullptr) loader = current_loader();
  if (auto* cached = loader->cached(name)) return cached;
  // Parent-first delegation, walked as ART's class linker walks the loader
  // chain: a miss at any level is a null, never an exception.
  RuntimeClass* found = nullptr;
  if (loader->parent() != nullptr) found = find_class(loader->parent(), name);
  if (found == nullptr) found = define_class(loader, name);
  if (found != nullptr) loader->remember(name, found);
  return found;
}

RuntimeClass* Vm::define_class(LoaderState* loader, Name name) {
  const auto view = names_.view(name);
  if (loader->type() == LoaderType::Boot) {
    if (!kFramework.has_class(view)) return nullptr;
    return &classes_.emplace(name, view, nullptr, nullptr, loader);
  }
  const auto found = loader->find_local(view);
  if (found.def == nullptr) return nullptr;
  return &classes_.emplace(name, view, found.dex, found.def, loader);
}

Name Vm::pool_name(LoadedDex& dex, std::uint32_t idx) {
  if (idx < dex.names.size() && dex.names[idx]) return dex.names[idx];
  // string_at rejects an index outside the pool (support::ParseError).
  const auto name = intern(dex.dex->string_at(idx));
  if (idx >= dex.names.size()) {
    dex.names.resize(std::max<std::size_t>(idx + 1, 64));
  }
  dex.names[idx] = name;
  return name;
}

RuntimeClass* Vm::load_pool_class(RuntimeClass* caller, std::uint32_t idx) {
  auto& pool = *caller->dex();
  if (auto* rc = find_class(caller->loader(), pool_name(pool, idx))) return rc;
  // Every loader chain ends at the boot loader, so a null here means
  // neither the app nor the framework has the class.
  throw make_exception("ClassNotFoundException: " +
                       pool.dex->string_at(idx));
}

RuntimeClass* Vm::super_of(RuntimeClass* cls) {
  if (!cls->super_known()) {
    const auto super = cls->super_name();
    const Name super_id = super.empty() ? Name{} : intern(super);
    cls->set_super(super_id, super.empty()
                                 ? nullptr
                                 : find_class(cls->loader(), super_id));
  }
  return cls->super();
}

const Intrinsic* Vm::find_intrinsic(Name cls, Name method) {
  for (const auto& known : intrinsics_) {
    if (known.cls == cls && known.method == method) return known.fn;
  }
  const auto* fn = kFramework.find(names_.view(cls), names_.view(method));
  if (intrinsics_.empty()) intrinsics_.reserve(16);
  intrinsics_.push_back(KnownIntrinsic{cls, method, fn});
  return fn;
}

RuntimeClass::Resolution Vm::resolve_app_method(RuntimeClass* start,
                                                Name method) {
  if (const auto* known = start->resolved(method)) return *known;
  RuntimeClass::Resolution res;
  const auto view = names_.view(method);
  RuntimeClass* rc = start;
  int hops = 0;
  while (rc != nullptr && !rc->is_framework() && hops++ < 32) {
    if (const auto* m = rc->def()->find_method(view)) {
      res = {rc, m};
      break;
    }
    rc = super_of(rc);
  }
  start->remember(method, res);
  return res;
}

ObjRef Vm::instantiate(std::string_view class_name) {
  const auto name = intern(class_name);
  RuntimeClass* rc = find_class(app_loader_, name);
  // Packed apps (DEX encryption) declare components that only exist in a
  // runtime-created loader: packers swizzle the component class loader, so
  // component resolution falls through to loaders the app created.
  for (std::size_t i = 0; rc == nullptr && i < loaders_.size(); ++i) {
    auto& loader = loaders_[i];
    if (loader.type() == LoaderType::RuntimeDex ||
        loader.type() == LoaderType::RuntimePath) {
      rc = find_class(&loader, name);
    }
  }
  if (rc == nullptr) {
    throw make_exception("ClassNotFoundException: " + std::string(class_name));
  }
  auto obj = make_object(rc);
  const auto init = resolve_app_method(rc, init_name_);
  if (init.owner != nullptr && init.method->num_params == 1) {
    const Value self(obj);
    invoke(init.owner, *init.method, {&self, 1});
  }
  return obj;
}

bool Vm::has_method(ObjRef receiver, Name method) {
  if (receiver == nullptr || receiver->rt_class() == nullptr) return false;
  return resolve_app_method(receiver->rt_class(), method).owner != nullptr;
}

Value Vm::call_method(ObjRef receiver, Name method,
                      std::span<const Value> extra_args) {
  if (receiver == nullptr || receiver->rt_class() == nullptr) {
    throw make_exception("NullPointerException: call on null/framework obj");
  }
  const auto res = resolve_app_method(receiver->rt_class(), method);
  if (res.owner == nullptr) {
    throw make_exception("NoSuchMethodError: " +
                         std::string(receiver->class_name()) + "." +
                         std::string(names_.view(method)));
  }
  std::array<Value, dex::kMaxInvokeArgs> args;
  if (extra_args.size() >= args.size()) {
    throw make_exception("IllegalArgumentException: too many arguments");
  }
  args[0] = Value(receiver);
  std::copy(extra_args.begin(), extra_args.end(), args.begin() + 1);
  return invoke(res.owner, *res.method, {args.data(), 1 + extra_args.size()});
}

Value Vm::call_static(std::string_view class_name,
                      std::string_view method_name,
                      std::span<const Value> args) {
  auto* rc = load_class(app_loader_, class_name);
  const dex::Method* m =
      rc->is_framework() ? nullptr : rc->def()->find_method(method_name);
  if (m == nullptr) {
    throw make_exception("NoSuchMethodError: " + std::string(class_name) +
                         "." + std::string(method_name));
  }
  return invoke(rc, *m, args);
}

Value Vm::invoke(RuntimeClass* cls, const dex::Method& method,
                 std::span<const Value> args) {
  if (frames_.empty()) steps_ = 0;  // fresh entry: reset the ANR budget
  if (method.is_native()) {
    const auto symbol = find_native_symbol(method.name);
    if (!symbol.has_value()) {
      throw make_exception("UnsatisfiedLinkError: " + method.name);
    }
    return execute_body(symbol->cls, *symbol->method, args);
  }
  return execute_body(cls, method, args);
}

Value Vm::execute_body(RuntimeClass* cls, const dex::Method& method,
                       std::span<const Value> args) {
  if (static_cast<int>(frames_.size()) >= limits_.max_call_depth) {
    throw VmException("StackOverflowError", current_stack_trace(),
                      /*budget=*/true);
  }
  // The frame's register window sits on top of the register stack, and its
  // exception handlers on top of the handler stack; both are dropped on any
  // exit. `args` never point into the stack (callers pass C++ locals), so
  // growing it cannot invalidate them.
  const std::size_t base = stack_.size();
  const std::size_t handler_base = handlers_.size();
  frames_.push_back(Frame{cls, cls->name(), method.name});
  struct Pop {
    Vm* vm;
    std::size_t base;
    std::size_t handler_base;
    ~Pop() {
      vm->stack_.resize(base);
      vm->handlers_.resize(handler_base);
      vm->frames_.pop_back();
    }
  } pop{this, base, handler_base};
  stack_.resize(base + method.num_registers);
  std::copy_n(args.begin(), std::min<std::size_t>(args.size(),
                                                  method.num_registers),
              stack_.begin() + static_cast<std::ptrdiff_t>(base));

  LoadedDex& pool = *cls->dex();
  const auto& dexf = *pool.dex;
  Value last_result;

  std::size_t pc = 0;
  while (pc < method.code.size()) {
    if (++steps_ > limits_.max_steps_per_entry) {
      throw VmException("ANR: step budget exhausted", current_stack_trace(),
                        /*budget=*/true);
    }
    // Re-pointed every step: a call may have grown (moved) the stack.
    Value* const regs = stack_.data() + base;
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
        regs[ins.a] = Value::of_str(dexf.string_at(ins.name));
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
            out = make_string(regs[ins.b].display() + regs[ins.c].display());
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
        regs[ins.a] = out;
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
        auto* rt = load_pool_class(cls, ins.cls);
        regs[ins.a] = Value(make_object(rt));
        break;
      }
      case Op::InvokeStatic:
      case Op::InvokeVirtual:
        last_result = dispatch_invoke(cls, ins, regs);
        break;
      case Op::IGet: {
        const auto& obj = regs[ins.b];
        if (!obj.is_obj()) throw make_exception("NullPointerException: iget");
        regs[ins.a] = obj.as_obj()->get_field(pool_name(pool, ins.name));
        break;
      }
      case Op::IPut: {
        const auto& obj = regs[ins.b];
        if (!obj.is_obj()) throw make_exception("NullPointerException: iput");
        obj.as_obj()->set_field(pool_name(pool, ins.name), regs[ins.a]);
        break;
      }
      case Op::SGet: {
        auto* rt = load_pool_class(cls, ins.cls);
        regs[ins.a] = rt->get_static(pool_name(pool, ins.name));
        break;
      }
      case Op::SPut: {
        auto* rt = load_pool_class(cls, ins.cls);
        rt->set_static(pool_name(pool, ins.name), regs[ins.a]);
        break;
      }
      case Op::Return:
        return regs[ins.a];
      case Op::ReturnVoid:
        return Value();
      case Op::Throw:
        throw make_exception(regs[ins.a].display());
      case Op::TryEnter:
        handlers_.push_back(Handler{ins.a, ins.target});
        break;
      case Op::TryExit:
        if (handlers_.size() > handler_base) handlers_.pop_back();
        break;
    }
    } catch (const VmException& e) {
      // Budget violations are fatal by design: apps must not be able to
      // catch their way around the ANR/recursion guards.
      if (handlers_.size() == handler_base || e.budget()) throw;
      const auto handler = handlers_.back();
      handlers_.pop_back();
      stack_[base + handler.reg] = make_string(e.what());
      pc = static_cast<std::size_t>(handler.pc);
      continue;
    }
    ++pc;
  }
  return Value();
}

Value Vm::dispatch_invoke(RuntimeClass* caller_cls, const dex::Instruction& ins,
                          const Value* regs) {
  LoadedDex& pool = *caller_cls->dex();
  const auto& cls_name = pool.dex->string_at(ins.cls);
  const auto& method_name = pool.dex->string_at(ins.name);
  std::array<Value, dex::kMaxInvokeArgs> arg_buf;
  const std::size_t argc = std::min<std::size_t>(ins.argc, arg_buf.size());
  for (std::size_t i = 0; i < argc; ++i) arg_buf[i] = regs[ins.args[i]];
  const std::span<const Value> args(arg_buf.data(), argc);

  const Name cls_id = pool_name(pool, ins.cls);
  const Name method = pool_name(pool, ins.name);

  // The framework class whose intrinsic serves the call, and the intrinsic;
  // the declared class unless virtual dispatch finds a closer one.
  std::string_view owner = cls_name;
  const Intrinsic* fn = nullptr;
  if (ins.op == dex::Op::InvokeVirtual) {
    if (args.empty() || !args[0].is_obj()) {
      throw make_exception("NullPointerException: invoke-virtual on null (" +
                           cls_name + "." + method_name + ")");
    }
    const ObjRef receiver = args[0].as_obj();
    if (auto* start = receiver->rt_class()) {
      const auto res = resolve_app_method(start, method);
      if (res.owner != nullptr) return invoke(res.owner, *res.method, args);
    }
    // Framework object, or app class inheriting a framework method:
    // dispatch by the receiver's dynamic class first, then superclass walk,
    // then by the declared class.
    fn = find_intrinsic(receiver->class_id(), method);
    if (fn != nullptr) {
      owner = receiver->class_name();
    } else if (auto* rc = receiver->rt_class()) {
      // Walk to the nearest framework superclass name for intrinsic lookup.
      for (int hops = 0; rc != nullptr && !rc->is_framework() && hops < 32;
           ++hops) {
        auto* super = super_of(rc);
        if (!rc->super_id()) break;
        fn = find_intrinsic(rc->super_id(), method);
        if (fn != nullptr) {
          owner = rc->super_name();
          break;
        }
        rc = super;
      }
    }
  } else {
    // InvokeStatic: app classes first (through the caller's loader), then
    // framework intrinsics.
    auto* rt = find_class(caller_cls->loader(), cls_id);
    if (rt != nullptr && !rt->is_framework()) {
      if (const auto* m = rt->def()->find_method(method_name)) {
        return invoke(rt, *m, args);
      }
    }
  }
  if (fn == nullptr) fn = find_intrinsic(cls_id, method);
  if (fn == nullptr) {
    throw make_exception("NoSuchMethodError: " + cls_name + "." + method_name);
  }
  return call_intrinsic(owner, method_name, *fn, args);
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
          device_->vfs().write_file(principal_, odex, bytes);
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
  auto holder = std::make_shared<LoadedNative>(
      LoadedNative{path, std::move(lib), loader});
  // The loader's dex is the library's own code, shared rather than copied:
  // the pointer keeps the whole library alive.
  loader->add_dex(
      std::shared_ptr<const dex::DexFile>(holder, &holder->lib.code()));
  natives_.push_back(std::move(holder));
}

void Vm::load_native_library_by_name(const std::string& name) {
  const auto file = nativebin::map_library_name(name);
  const auto app_lib =
      os::internal_storage_dir(package()) + "/lib/" + file;
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
      device_->vfs().write_file(principal_, path, std::move(data));
  if (!status) {
    throw make_exception("IOException: " + status.error());
  }
  if (hooks_.on_file_written) hooks_.on_file_written(path);
}

void Vm::emit_flow(const FlowNode& from, const FlowNode& to) {
  if (hooks_.on_flow) hooks_.on_flow(from, to);
}

}  // namespace dydroid::vm
