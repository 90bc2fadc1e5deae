#include "dex/dexfile.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/trace.hpp"

namespace dydroid::dex {

using support::ByteReader;
using support::Bytes;
using support::ByteWriter;
using support::ParseError;

const Method* ClassDef::find_method(std::string_view method_name) const {
  for (const auto& m : methods) {
    if (m.name == method_name) return &m;
  }
  return nullptr;
}

std::uint32_t DexFile::intern(std::string_view s) {
  // A parsed file indexes its pool here, on its first intern, not in
  // deserialize: the pipeline parses files and never interns into them
  // (the builder and the obfuscators intern into fresh ones). The first
  // index of a duplicated pool string wins.
  if (index_.empty() && !strings_.empty()) {
    index_.reserve(strings_.size());
    for (std::uint32_t i = 0; i < strings_.size(); ++i) {
      index_.emplace(strings_[i], i);
    }
  }
  const auto it = index_.find(std::string(s));
  if (it != index_.end()) return it->second;
  const auto idx = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(strings_.back(), idx);
  return idx;
}

const std::string& DexFile::string_at(std::uint32_t idx) const {
  if (idx >= strings_.size()) {
    throw ParseError("string index out of range: " + std::to_string(idx));
  }
  return strings_[idx];
}

const ClassDef* DexFile::find_class(std::string_view name) const {
  for (const auto& c : classes_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

ClassDef& DexFile::add_class(ClassDef cls) {
  classes_.push_back(std::move(cls));
  return classes_.back();
}

namespace {

void write_instruction(ByteWriter& w, const Instruction& ins) {
  w.u8(static_cast<std::uint8_t>(ins.op));
  w.u16(ins.a);
  w.u16(ins.b);
  w.u16(ins.c);
  w.u32(static_cast<std::uint32_t>(ins.target));
  w.i64(ins.imm);
  w.u32(ins.cls);
  w.u32(ins.name);
  w.u8(ins.argc);
  for (std::uint8_t i = 0; i < ins.argc; ++i) w.u16(ins.args[i]);
}

Instruction read_instruction(ByteReader& r) {
  Instruction ins;
  const auto raw_op = r.u8();
  if (raw_op >= kOpCount) {
    throw ParseError("invalid opcode: " + std::to_string(raw_op));
  }
  ins.op = static_cast<Op>(raw_op);
  ins.a = r.u16();
  ins.b = r.u16();
  ins.c = r.u16();
  ins.target = static_cast<std::int32_t>(r.u32());
  ins.imm = r.i64();
  ins.cls = r.u32();
  ins.name = r.u32();
  ins.argc = r.u8();
  if (ins.argc > kMaxInvokeArgs) {
    throw ParseError("invoke argc too large: " + std::to_string(ins.argc));
  }
  for (std::uint8_t i = 0; i < ins.argc; ++i) ins.args[i] = r.u16();
  return ins;
}

}  // namespace

Bytes DexFile::serialize() const {
  ByteWriter w;
  w.raw(support::to_bytes(kMagic));
  w.u32(static_cast<std::uint32_t>(strings_.size()));
  for (const auto& s : strings_) w.str(s);
  w.u32(static_cast<std::uint32_t>(classes_.size()));
  for (const auto& c : classes_) {
    w.str(c.name);
    w.str(c.super_name);
    w.u32(static_cast<std::uint32_t>(c.instance_fields.size()));
    for (const auto& f : c.instance_fields) w.str(f);
    w.u32(static_cast<std::uint32_t>(c.static_fields.size()));
    for (const auto& f : c.static_fields) w.str(f);
    w.u32(static_cast<std::uint32_t>(c.methods.size()));
    for (const auto& m : c.methods) {
      w.str(m.name);
      w.u32(m.flags);
      w.u16(m.num_params);
      w.u16(m.num_registers);
      w.u32(static_cast<std::uint32_t>(m.code.size()));
      for (const auto& ins : m.code) write_instruction(w, ins);
    }
  }
  w.u32(static_cast<std::uint32_t>(extras_.size()));
  for (const auto& e : extras_) {
    w.str(e.name);
    w.blob(e.data);
  }
  return w.take();
}

DexFile DexFile::deserialize(std::span<const std::uint8_t> data) {
  support::count("pipeline.dex_parses", 1);
  // Fault-injection site: bad string/method data (support::FaultInjector).
  if (support::fault_fire(support::FaultSite::kDexParse)) {
    throw ParseError(support::fault_message(support::FaultSite::kDexParse));
  }
  ByteReader r(data);
  if (support::as_chars(r.view(kMagic.size())) != kMagic) {
    throw ParseError("bad SimDex magic");
  }
  DexFile dex;
  const auto num_strings = r.u32();
  // Every string carries a 4-byte length, so the bytes left bound an
  // honest count; a lying one fails on its first missing string instead of
  // driving the reservation into std::bad_alloc.
  dex.strings_.reserve(std::min<std::size_t>(num_strings, r.remaining() / 4));
  for (std::uint32_t i = 0; i < num_strings; ++i) {
    // Preserve pool order: duplicate strings are not re-interned so indices
    // embedded in instructions remain stable.
    dex.strings_.push_back(r.str());
  }
  const auto num_classes = r.u32();
  for (std::uint32_t i = 0; i < num_classes; ++i) {
    ClassDef c;
    c.name = r.str();
    c.super_name = r.str();
    const auto nif = r.u32();
    for (std::uint32_t j = 0; j < nif; ++j) c.instance_fields.push_back(r.str());
    const auto nsf = r.u32();
    for (std::uint32_t j = 0; j < nsf; ++j) c.static_fields.push_back(r.str());
    const auto nm = r.u32();
    for (std::uint32_t j = 0; j < nm; ++j) {
      Method m;
      m.name = r.str();
      m.flags = r.u32();
      m.num_params = r.u16();
      m.num_registers = r.u16();
      const auto ni = r.u32();
      // A lying length prefix must not drive the allocation: every
      // instruction consumes at least one byte, so the remaining input
      // bounds any honest count (the per-instruction reads then reject
      // the lie with a truncation ParseError instead of a bad_alloc).
      m.code.reserve(std::min<std::size_t>(ni, r.remaining()));
      for (std::uint32_t k = 0; k < ni; ++k) m.code.push_back(read_instruction(r));
      c.methods.push_back(std::move(m));
    }
    dex.classes_.push_back(std::move(c));
  }
  const auto num_extras = r.u32();
  for (std::uint32_t i = 0; i < num_extras; ++i) {
    ExtraSection e;
    e.name = r.str();
    e.data = r.blob();
    dex.extras_.push_back(std::move(e));
  }
  if (auto err = dex.validate()) throw ParseError(*err);
  return dex;
}

std::optional<std::string> DexFile::validate() const {
  const auto nstr = static_cast<std::uint32_t>(strings_.size());
  for (const auto& c : classes_) {
    for (const auto& m : c.methods) {
      if (m.num_registers < m.num_params) {
        return "method " + c.name + "." + m.name + ": registers < params";
      }
      const auto ncode = static_cast<std::int32_t>(m.code.size());
      for (std::size_t pc = 0; pc < m.code.size(); ++pc) {
        const auto& ins = m.code[pc];
        // The location is spelled out only for the error being returned.
        const auto where = [&] {
          return c.name + "." + m.name + "@" + std::to_string(pc);
        };
        auto reg_ok = [&](std::uint16_t reg) { return reg < m.num_registers; };
        if (!reg_ok(ins.a) || !reg_ok(ins.b) || !reg_ok(ins.c)) {
          return where() + ": register out of range";
        }
        if (ins.has_target() && (ins.target < 0 || ins.target >= ncode)) {
          return where() + ": branch target out of range";
        }
        const bool uses_cls = ins.op == Op::NewInstance || ins.is_invoke() ||
                              ins.op == Op::SGet || ins.op == Op::SPut;
        const bool uses_name = uses_cls || ins.op == Op::ConstStr ||
                               ins.op == Op::IGet || ins.op == Op::IPut;
        if (uses_cls && ins.cls >= nstr) return where() + ": class index bad";
        if (uses_name && ins.name >= nstr) return where() + ": name index bad";
        for (std::uint8_t i = 0; i < ins.argc; ++i) {
          if (!reg_ok(ins.args[i])) return where() + ": arg register bad";
        }
      }
    }
  }
  return std::nullopt;
}

bool looks_like_dex(std::span<const std::uint8_t> data) {
  const auto magic = DexFile::kMagic;
  if (data.size() < magic.size()) return false;
  return std::equal(magic.begin(), magic.end(), data.begin(),
                    [](char c, std::uint8_t b) {
                      return static_cast<std::uint8_t>(c) == b;
                    });
}

}  // namespace dydroid::dex
