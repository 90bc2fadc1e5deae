#include "dex/disassembler.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace dydroid::dex {

using support::ParseError;

support::Bytes encode_debug_info(const std::vector<DebugLine>& lines) {
  support::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(lines.size()));
  for (const auto& l : lines) {
    w.u32(l.pc);
    w.u32(l.line);
  }
  return w.take();
}

void check_debug_info(const DexFile& dex) {
  for (const auto& extra : dex.extras()) {
    if (extra.name != kDebugInfoSection) continue;
    // Entries are read one by one, never sized from the declared count: a
    // count larger than the section holds fails as truncation.
    support::ByteReader r(extra.data);
    const auto n = r.u32();
    std::int64_t last_pc = -1;
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto pc = r.u32();
      (void)r.u32();  // line
      if (static_cast<std::int64_t>(pc) <= last_pc) {
        throw ParseError("debug_info: pcs not strictly increasing at entry " +
                         std::to_string(i));
      }
      last_pc = pc;
    }
    if (!r.at_end()) {
      throw ParseError("debug_info: trailing bytes");
    }
  }
}

namespace {

void disassemble_instruction(std::ostringstream& out, const DexFile& dex,
                             const Instruction& ins, std::size_t pc) {
  out << "    #" << pc << "  " << op_name(ins.op);
  switch (ins.op) {
    case Op::ConstInt:
      out << " v" << ins.a << ", " << ins.imm;
      break;
    case Op::ConstStr:
      out << " v" << ins.a << ", \"" << dex.string_at(ins.name) << "\"";
      break;
    case Op::Move:
      out << " v" << ins.a << ", v" << ins.b;
      break;
    case Op::MoveResult:
    case Op::Return:
    case Op::Throw:
      out << " v" << ins.a;
      break;
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Rem:
    case Op::Concat:
    case Op::CmpEq:
    case Op::CmpLt:
      out << " v" << ins.a << ", v" << ins.b << ", v" << ins.c;
      break;
    case Op::IfEqz:
    case Op::IfNez:
      out << " v" << ins.a << ", @" << ins.target;
      break;
    case Op::Goto:
      out << " @" << ins.target;
      break;
    case Op::TryEnter:
      out << " v" << ins.a << ", handler @" << ins.target;
      break;
    case Op::NewInstance:
      out << " v" << ins.a << ", " << dex.string_at(ins.cls);
      break;
    case Op::InvokeStatic:
    case Op::InvokeVirtual: {
      out << " " << dex.string_at(ins.cls) << "->" << dex.string_at(ins.name)
          << "(";
      for (std::uint8_t i = 0; i < ins.argc; ++i) {
        if (i != 0) out << ", ";
        out << "v" << ins.args[i];
      }
      out << ")";
      break;
    }
    case Op::IGet:
      out << " v" << ins.a << ", v" << ins.b << "."
          << dex.string_at(ins.name);
      break;
    case Op::IPut:
      out << " v" << ins.b << "." << dex.string_at(ins.name) << " <- v"
          << ins.a;
      break;
    case Op::SGet:
      out << " v" << ins.a << ", " << dex.string_at(ins.cls) << "."
          << dex.string_at(ins.name);
      break;
    case Op::SPut:
      out << " " << dex.string_at(ins.cls) << "." << dex.string_at(ins.name)
          << " <- v" << ins.a;
      break;
    case Op::Nop:
    case Op::ReturnVoid:
    case Op::TryExit:
      break;
  }
  out << "\n";
}

}  // namespace

std::string disassemble(const DexFile& dex) {
  // Check known extra sections first; this is the strictness the
  // anti-decompilation poisoner exploits.
  check_debug_info(dex);
  if (auto err = dex.validate()) {
    throw ParseError("disassemble: " + *err);
  }
  std::ostringstream out;
  for (const auto& cls : dex.classes()) {
    out << ".class " << cls.name;
    if (!cls.super_name.empty()) out << " extends " << cls.super_name;
    out << "\n";
    for (const auto& f : cls.static_fields) {
      out << "  .field static " << f << "\n";
    }
    for (const auto& f : cls.instance_fields) {
      out << "  .field " << f << "\n";
    }
    for (const auto& m : cls.methods) {
      out << "  .method ";
      if (m.is_static()) out << "static ";
      if (m.is_native()) out << "native ";
      out << m.name << " params=" << m.num_params
          << " registers=" << m.num_registers << "\n";
      for (std::size_t pc = 0; pc < m.code.size(); ++pc) {
        disassemble_instruction(out, dex, m.code[pc], pc);
      }
      out << "  .end method\n";
    }
    out << ".end class\n";
  }
  return out.str();
}

}  // namespace dydroid::dex
