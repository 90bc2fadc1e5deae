// Unit tests for SimDex: builder, serialization, validation, disassembly.
#include <gtest/gtest.h>

#include "dex/builder.hpp"
#include "dex/disassembler.hpp"
#include "dex/dexfile.hpp"
#include "support/error.hpp"

namespace dydroid::dex {
namespace {

using support::ParseError;

DexFile make_simple() {
  DexBuilder b;
  auto cls = b.cls("com.example.Main", "android.app.Activity");
  cls.instance_field("counter");
  auto m = cls.method("onCreate", 1);
  m.const_int(1, 41);
  m.const_int(2, 1);
  m.add(3, 1, 2);
  m.ret(3);
  m.done();
  return b.build();
}

TEST(DexBuilder, BuildsWellFormedFile) {
  const auto dex = make_simple();
  EXPECT_EQ(dex.classes().size(), 1u);
  EXPECT_EQ(dex.validate(), std::nullopt);
  const auto* cls = dex.find_class("com.example.Main");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->super_name, "android.app.Activity");
  const auto* m = cls->find_method("onCreate");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->num_params, 1);
  EXPECT_GE(m->num_registers, 4);
}

TEST(DexBuilder, ImplicitReturnAppended) {
  DexBuilder b;
  auto m = b.cls("a.B").method("f", 0);
  m.const_int(0, 1);
  m.done();
  const auto dex = b.build();
  const auto& code = dex.find_class("a.B")->methods[0].code;
  ASSERT_EQ(code.size(), 2u);
  EXPECT_EQ(code.back().op, Op::ReturnVoid);
}

TEST(DexBuilder, LabelsResolveForwardAndBackward) {
  DexBuilder b;
  auto m = b.cls("a.B").method("loop", 1);
  m.const_int(1, 3);
  m.label("top");
  m.if_eqz(1, "end");
  m.const_int(2, 1);
  m.sub(1, 1, 2);
  m.jump("top");
  m.label("end");
  m.return_void();
  m.done();
  const auto dex = b.build();
  EXPECT_EQ(dex.validate(), std::nullopt);
  const auto& code = dex.find_class("a.B")->methods[0].code;
  EXPECT_EQ(code[1].target, 5);  // if_eqz -> label end
  EXPECT_EQ(code[4].target, 1);  // goto -> label top
}

TEST(DexBuilder, TrailingLabelAfterTerminatorGetsLandingPad) {
  // Regression: a jump-to-exit label placed after a terminator must still
  // resolve to a real instruction (an implicit return is appended).
  DexBuilder b;
  auto m = b.cls("a.B").static_method("f", 1);
  m.if_eqz(0, "exit");
  m.const_int(1, 1);
  m.jump("exit");
  m.label("exit");
  m.done();
  const auto dex = b.build();
  EXPECT_EQ(dex.validate(), std::nullopt);
  const auto& code = dex.find_class("a.B")->methods[0].code;
  EXPECT_EQ(code.back().op, Op::ReturnVoid);
  EXPECT_EQ(code[0].target, static_cast<std::int32_t>(code.size() - 1));
}

TEST(DexBuilder, UndefinedLabelThrows) {
  DexBuilder b;
  auto m = b.cls("a.B").method("f", 0);
  m.jump("nowhere");
  EXPECT_THROW(m.done(), std::logic_error);
}

TEST(DexBuilder, ReopenClassAddsMethods) {
  DexBuilder b;
  b.cls("a.B").method("f", 0).return_void().done();
  b.cls("a.B").method("g", 0).return_void().done();
  const auto dex = b.build();
  EXPECT_EQ(dex.find_class("a.B")->methods.size(), 2u);
}

TEST(DexBuilder, TooManyInvokeArgsThrows) {
  DexBuilder b;
  auto m = b.cls("a.B").method("f", 0);
  EXPECT_THROW(
      m.invoke_static("x.Y", "g", {0, 1, 2, 3, 4, 5, 6, 7, 0}),
      std::invalid_argument);
  m.return_void();
  m.done();
}

TEST(DexFile, SerializeDeserializeRoundTrip) {
  const auto dex = make_simple();
  const auto bytes = dex.serialize();
  EXPECT_TRUE(looks_like_dex(bytes));
  const auto back = DexFile::deserialize(bytes);
  EXPECT_EQ(back.classes().size(), 1u);
  EXPECT_EQ(back.serialize(), bytes);  // stable round trip
}

TEST(DexFile, DeserializeBadMagicThrows) {
  auto bytes = make_simple().serialize();
  bytes[0] = 'X';
  EXPECT_THROW((void)DexFile::deserialize(bytes), ParseError);
}

TEST(DexFile, DeserializeTruncatedThrows) {
  auto bytes = make_simple().serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)DexFile::deserialize(bytes), ParseError);
}

TEST(DexFile, LyingStringCountThrowsParseError) {
  // A string count of 0xFFFFFFFF with no strings must fail as a truncated
  // pool, never drive a reservation into std::bad_alloc.
  support::ByteWriter w;
  w.raw(support::to_bytes(DexFile::kMagic));
  w.u32(0xFFFFFFFFu);
  EXPECT_THROW((void)DexFile::deserialize(w.data()), ParseError);
}

TEST(DexFile, ValidateCatchesBadStringIndex) {
  DexFile dex;
  ClassDef cls;
  cls.name = "a.B";
  Method m;
  m.name = "f";
  m.num_registers = 1;
  Instruction ins;
  ins.op = Op::ConstStr;
  ins.name = 99;  // out of range
  m.code.push_back(ins);
  cls.methods.push_back(m);
  dex.add_class(cls);
  EXPECT_NE(dex.validate(), std::nullopt);
}

TEST(DexFile, ValidateCatchesBadBranchTarget) {
  DexFile dex;
  ClassDef cls;
  cls.name = "a.B";
  Method m;
  m.name = "f";
  m.num_registers = 1;
  Instruction ins;
  ins.op = Op::Goto;
  ins.target = 5;  // out of range
  m.code.push_back(ins);
  cls.methods.push_back(m);
  dex.add_class(cls);
  EXPECT_NE(dex.validate(), std::nullopt);
}

TEST(DexFile, ValidateCatchesRegisterOverflow) {
  DexFile dex;
  ClassDef cls;
  cls.name = "a.B";
  Method m;
  m.name = "f";
  m.num_registers = 2;
  Instruction ins;
  ins.op = Op::Move;
  ins.a = 1;
  ins.b = 7;  // register file is only 2 wide
  m.code.push_back(ins);
  cls.methods.push_back(m);
  dex.add_class(cls);
  EXPECT_NE(dex.validate(), std::nullopt);
}

TEST(DexFile, InternDeduplicates) {
  DexFile dex;
  const auto a = dex.intern("hello");
  const auto b = dex.intern("hello");
  const auto c = dex.intern("world");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(dex.string_at(a), "hello");
}

TEST(DexFile, InternAfterDeserializeUsesThePool) {
  // A pool with a duplicate ("a" at 0 and 2), which only a hand-written
  // file has: intern() never adds a string twice.
  support::ByteWriter w;
  w.raw(support::to_bytes(DexFile::kMagic));
  w.u32(3);
  w.str("a");
  w.str("b");
  w.str("a");
  w.u32(0);  // classes
  w.u32(0);  // extras
  auto dex = DexFile::deserialize(w.data());
  EXPECT_EQ(dex.intern("a"), 0u);  // the first index of a duplicate wins
  EXPECT_EQ(dex.intern("b"), 1u);
  EXPECT_EQ(dex.intern("c"), 3u);  // a new string is appended
  EXPECT_EQ(dex.intern("c"), 3u);
  EXPECT_EQ(dex.string_at(2), "a");
  EXPECT_EQ(dex.string_at(3), "c");
  const auto bytes = dex.serialize();
  auto back = DexFile::deserialize(bytes);
  EXPECT_EQ(back.serialize(), bytes);
  EXPECT_EQ(back.intern("c"), 3u);
  EXPECT_EQ(back.intern("a"), 0u);
}

TEST(DexFile, ExtrasSurviveRoundTrip) {
  auto dex = make_simple();
  dex.add_extra(ExtraSection{"custom_meta", support::to_bytes("opaque")});
  const auto back = DexFile::deserialize(dex.serialize());
  ASSERT_EQ(back.extras().size(), 1u);
  EXPECT_EQ(back.extras()[0].name, "custom_meta");
}

TEST(Disassembler, ContainsClassAndOps) {
  const auto text = disassemble(make_simple());
  EXPECT_NE(text.find(".class com.example.Main"), std::string::npos);
  EXPECT_NE(text.find("const-int"), std::string::npos);
  EXPECT_NE(text.find("add"), std::string::npos);
}

TEST(Disassembler, ValidDebugInfoAccepted) {
  auto dex = make_simple();
  dex.add_extra(ExtraSection{
      std::string(kDebugInfoSection),
      encode_debug_info({{0, 10}, {1, 11}, {3, 12}})});
  EXPECT_NO_THROW(check_debug_info(dex));
  EXPECT_NO_THROW((void)disassemble(dex));
}

TEST(Disassembler, MalformedDebugInfoThrows) {
  auto dex = make_simple();
  // Non-increasing pcs: the tooling rejects this while the VM (which skips
  // the section) keeps running — the anti-decompilation asymmetry.
  dex.add_extra(ExtraSection{std::string(kDebugInfoSection),
                             encode_debug_info({{5, 1}, {5, 2}})});
  EXPECT_THROW(check_debug_info(dex), ParseError);
  EXPECT_THROW((void)disassemble(dex), ParseError);
}

TEST(Disassembler, TruncatedDebugInfoThrows) {
  auto dex = make_simple();
  support::ByteWriter w;
  w.u32(3);  // declares 3 entries, provides none
  dex.add_extra(ExtraSection{std::string(kDebugInfoSection), w.take()});
  EXPECT_THROW(check_debug_info(dex), ParseError);
  EXPECT_THROW((void)disassemble(dex), ParseError);
}

TEST(Disassembler, LyingDebugInfoCountThrowsParseError) {
  // A count of 0xFFFFFFFF with no entries must fail as a truncated section,
  // never drive a ~32 GiB reservation into std::bad_alloc.
  auto dex = make_simple();
  support::ByteWriter w;
  w.u32(0xFFFFFFFFu);
  dex.add_extra(ExtraSection{std::string(kDebugInfoSection), w.take()});
  EXPECT_THROW(check_debug_info(dex), ParseError);
  EXPECT_THROW((void)disassemble(dex), ParseError);
}

TEST(Instruction, KindPredicates) {
  Instruction ins;
  ins.op = Op::Goto;
  EXPECT_TRUE(ins.is_branch());
  EXPECT_TRUE(ins.is_terminator());
  ins.op = Op::InvokeStatic;
  EXPECT_TRUE(ins.is_invoke());
  EXPECT_FALSE(ins.is_branch());
  ins.op = Op::Return;
  EXPECT_TRUE(ins.is_terminator());
}

class OpNameTest : public ::testing::TestWithParam<int> {};

TEST_P(OpNameTest, EveryOpcodeHasAMnemonic) {
  const auto op = static_cast<Op>(GetParam());
  EXPECT_NE(op_name(op), "invalid");
  EXPECT_FALSE(op_name(op).empty());
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpNameTest,
                         ::testing::Range(0, kOpCount));

}  // namespace
}  // namespace dydroid::dex
