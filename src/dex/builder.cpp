#include "dex/builder.hpp"

#include <stdexcept>

namespace dydroid::dex {

MethodBuilder::MethodBuilder(DexBuilder* dex, std::size_t cls_idx,
                             std::size_t method_idx)
    : dex_(dex), cls_idx_(cls_idx), method_idx_(method_idx) {}

MethodBuilder::~MethodBuilder() {
  if (!finalized_) done();
}

Method& MethodBuilder::m() const {
  return dex_->dex_->classes()[cls_idx_].methods[method_idx_];
}

void MethodBuilder::track(std::uint16_t reg) {
  if (reg + 1 > max_reg_) max_reg_ = static_cast<std::uint16_t>(reg + 1);
}

std::uint32_t MethodBuilder::intern(std::string_view s) {
  return dex_->dex_->intern(s);
}

MethodBuilder& MethodBuilder::emit(Instruction ins) {
  track(ins.a);
  track(ins.b);
  track(ins.c);
  for (std::uint8_t i = 0; i < ins.argc; ++i) track(ins.args[i]);
  m().code.push_back(ins);
  return *this;
}

MethodBuilder& MethodBuilder::const_int(std::uint16_t dst, std::int64_t value) {
  Instruction ins;
  ins.op = Op::ConstInt;
  ins.a = dst;
  ins.imm = value;
  return emit(ins);
}

MethodBuilder& MethodBuilder::const_str(std::uint16_t dst,
                                        std::string_view value) {
  Instruction ins;
  ins.op = Op::ConstStr;
  ins.a = dst;
  ins.name = intern(value);
  return emit(ins);
}

MethodBuilder& MethodBuilder::move(std::uint16_t dst, std::uint16_t src) {
  Instruction ins;
  ins.op = Op::Move;
  ins.a = dst;
  ins.b = src;
  return emit(ins);
}

MethodBuilder& MethodBuilder::move_result(std::uint16_t dst) {
  Instruction ins;
  ins.op = Op::MoveResult;
  ins.a = dst;
  return emit(ins);
}

namespace {
Instruction binop(Op op, std::uint16_t dst, std::uint16_t lhs,
                  std::uint16_t rhs) {
  Instruction ins;
  ins.op = op;
  ins.a = dst;
  ins.b = lhs;
  ins.c = rhs;
  return ins;
}
}  // namespace

MethodBuilder& MethodBuilder::add(std::uint16_t d, std::uint16_t l,
                                  std::uint16_t r) {
  return emit(binop(Op::Add, d, l, r));
}
MethodBuilder& MethodBuilder::sub(std::uint16_t d, std::uint16_t l,
                                  std::uint16_t r) {
  return emit(binop(Op::Sub, d, l, r));
}
MethodBuilder& MethodBuilder::mul(std::uint16_t d, std::uint16_t l,
                                  std::uint16_t r) {
  return emit(binop(Op::Mul, d, l, r));
}
MethodBuilder& MethodBuilder::div(std::uint16_t d, std::uint16_t l,
                                  std::uint16_t r) {
  return emit(binop(Op::Div, d, l, r));
}
MethodBuilder& MethodBuilder::rem(std::uint16_t d, std::uint16_t l,
                                  std::uint16_t r) {
  return emit(binop(Op::Rem, d, l, r));
}
MethodBuilder& MethodBuilder::concat(std::uint16_t d, std::uint16_t l,
                                     std::uint16_t r) {
  return emit(binop(Op::Concat, d, l, r));
}
MethodBuilder& MethodBuilder::cmp_eq(std::uint16_t d, std::uint16_t l,
                                     std::uint16_t r) {
  return emit(binop(Op::CmpEq, d, l, r));
}
MethodBuilder& MethodBuilder::cmp_lt(std::uint16_t d, std::uint16_t l,
                                     std::uint16_t r) {
  return emit(binop(Op::CmpLt, d, l, r));
}

MethodBuilder& MethodBuilder::if_eqz(std::uint16_t reg, std::string_view label) {
  Instruction ins;
  ins.op = Op::IfEqz;
  ins.a = reg;
  fixups_.emplace_back(m().code.size(), std::string(label));
  return emit(ins);
}

MethodBuilder& MethodBuilder::if_nez(std::uint16_t reg, std::string_view label) {
  Instruction ins;
  ins.op = Op::IfNez;
  ins.a = reg;
  fixups_.emplace_back(m().code.size(), std::string(label));
  return emit(ins);
}

MethodBuilder& MethodBuilder::jump(std::string_view label) {
  Instruction ins;
  ins.op = Op::Goto;
  fixups_.emplace_back(m().code.size(), std::string(label));
  return emit(ins);
}

MethodBuilder& MethodBuilder::label(std::string_view name) {
  labels_[std::string(name)] = static_cast<std::int32_t>(m().code.size());
  return *this;
}

MethodBuilder& MethodBuilder::new_instance(std::uint16_t dst,
                                           std::string_view class_name) {
  Instruction ins;
  ins.op = Op::NewInstance;
  ins.a = dst;
  ins.cls = intern(class_name);
  ins.name = ins.cls;
  return emit(ins);
}

MethodBuilder& MethodBuilder::invoke_static(
    std::string_view class_name, std::string_view method_name,
    std::initializer_list<std::uint16_t> args) {
  if (args.size() > kMaxInvokeArgs) {
    throw std::invalid_argument("too many invoke args");
  }
  Instruction ins;
  ins.op = Op::InvokeStatic;
  ins.cls = intern(class_name);
  ins.name = intern(method_name);
  ins.argc = static_cast<std::uint8_t>(args.size());
  std::size_t i = 0;
  for (const auto reg : args) ins.args[i++] = reg;
  return emit(ins);
}

MethodBuilder& MethodBuilder::invoke_virtual(
    std::string_view class_name, std::string_view method_name,
    std::initializer_list<std::uint16_t> args) {
  if (args.size() == 0) {
    throw std::invalid_argument("invoke-virtual needs a receiver");
  }
  if (args.size() > kMaxInvokeArgs) {
    throw std::invalid_argument("too many invoke args");
  }
  Instruction ins;
  ins.op = Op::InvokeVirtual;
  ins.cls = intern(class_name);
  ins.name = intern(method_name);
  ins.argc = static_cast<std::uint8_t>(args.size());
  std::size_t i = 0;
  for (const auto reg : args) ins.args[i++] = reg;
  return emit(ins);
}

MethodBuilder& MethodBuilder::iget(std::uint16_t dst, std::uint16_t obj,
                                   std::string_view field) {
  Instruction ins;
  ins.op = Op::IGet;
  ins.a = dst;
  ins.b = obj;
  ins.name = intern(field);
  return emit(ins);
}

MethodBuilder& MethodBuilder::iput(std::uint16_t src, std::uint16_t obj,
                                   std::string_view field) {
  Instruction ins;
  ins.op = Op::IPut;
  ins.a = src;
  ins.b = obj;
  ins.name = intern(field);
  return emit(ins);
}

MethodBuilder& MethodBuilder::sget(std::uint16_t dst,
                                   std::string_view class_name,
                                   std::string_view field) {
  Instruction ins;
  ins.op = Op::SGet;
  ins.a = dst;
  ins.cls = intern(class_name);
  ins.name = intern(field);
  return emit(ins);
}

MethodBuilder& MethodBuilder::sput(std::uint16_t src,
                                   std::string_view class_name,
                                   std::string_view field) {
  Instruction ins;
  ins.op = Op::SPut;
  ins.a = src;
  ins.cls = intern(class_name);
  ins.name = intern(field);
  return emit(ins);
}

MethodBuilder& MethodBuilder::ret(std::uint16_t reg) {
  Instruction ins;
  ins.op = Op::Return;
  ins.a = reg;
  return emit(ins);
}

MethodBuilder& MethodBuilder::return_void() {
  Instruction ins;
  ins.op = Op::ReturnVoid;
  return emit(ins);
}

MethodBuilder& MethodBuilder::throw_str(std::uint16_t reg) {
  Instruction ins;
  ins.op = Op::Throw;
  ins.a = reg;
  return emit(ins);
}

MethodBuilder& MethodBuilder::try_enter(std::uint16_t dst,
                                        std::string_view handler_label) {
  Instruction ins;
  ins.op = Op::TryEnter;
  ins.a = dst;
  fixups_.emplace_back(m().code.size(), std::string(handler_label));
  return emit(ins);
}

MethodBuilder& MethodBuilder::try_exit() {
  Instruction ins;
  ins.op = Op::TryExit;
  return emit(ins);
}

MethodBuilder& MethodBuilder::nop() {
  Instruction ins;
  ins.op = Op::Nop;
  return emit(ins);
}

void MethodBuilder::done() {
  if (finalized_) return;
  finalized_ = true;
  Method& method = m();
  // A label may sit at the very end of the body (jump-to-exit); it needs an
  // instruction to land on even when the preceding one is a terminator.
  bool label_at_end = false;
  for (const auto& [name, pos] : labels_) {
    if (pos == static_cast<std::int32_t>(method.code.size())) {
      label_at_end = true;
    }
  }
  if (label_at_end || method.code.empty() ||
      !method.code.back().is_terminator()) {
    // Implicit return keeps generated bodies well-formed.
    Instruction ins;
    ins.op = Op::ReturnVoid;
    method.code.push_back(ins);
  }
  for (const auto& [pc, label] : fixups_) {
    const auto it = labels_.find(label);
    if (it == labels_.end()) {
      throw std::logic_error("undefined label: " + label);
    }
    method.code[pc].target = it->second;
  }
  if (max_reg_ < method.num_params) max_reg_ = method.num_params;
  method.num_registers = max_reg_;
}

ClassDef& ClassBuilder::c() const { return dex_->dex_->classes()[cls_idx_]; }

MethodBuilder ClassBuilder::method(std::string_view name, std::uint16_t params,
                                   std::uint32_t flags) {
  Method m;
  m.name = std::string(name);
  m.flags = flags;
  if (name == "<init>") m.flags |= kConstructor;
  m.num_params = params;
  m.num_registers = params;
  c().methods.push_back(std::move(m));
  return MethodBuilder(dex_, cls_idx_, c().methods.size() - 1);
}

MethodBuilder ClassBuilder::static_method(std::string_view name,
                                          std::uint16_t params) {
  return method(name, params, kPublic | kStatic);
}

ClassBuilder& ClassBuilder::native_method(std::string_view name,
                                          std::uint16_t params) {
  Method m;
  m.name = std::string(name);
  m.flags = kPublic | kNative;
  m.num_params = params;
  m.num_registers = params;
  c().methods.push_back(std::move(m));
  return *this;
}

ClassBuilder& ClassBuilder::instance_field(std::string_view name) {
  c().instance_fields.emplace_back(name);
  return *this;
}

ClassBuilder& ClassBuilder::static_field(std::string_view name) {
  c().static_fields.emplace_back(name);
  return *this;
}

ClassBuilder DexBuilder::cls(std::string_view name, std::string_view super) {
  auto& classes = dex_->classes();
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (classes[i].name == name) return ClassBuilder(this, i);
  }
  ClassDef def;
  def.name = std::string(name);
  def.super_name = std::string(super);
  dex_->add_class(std::move(def));
  return ClassBuilder(this, classes.size() - 1);
}

DexFile DexBuilder::build() {
  DexFile out = std::move(*dex_);
  dex_ = std::make_unique<DexFile>();
  return out;
}

}  // namespace dydroid::dex
