// Interpreter property tests: randomized arithmetic programs must agree
// with host-evaluated semantics; taint labels obey algebraic laws; the
// step/depth budgets always terminate runaway programs.
#include <gtest/gtest.h>

#include <array>

#include "dex/builder.hpp"
#include "os/device.hpp"
#include "support/rng.hpp"
#include "vm/vm.hpp"

namespace dydroid::vm {
namespace {

struct Env {
  os::Device device;
  manifest::Manifest manifest;  // the Vm borrows it
  std::unique_ptr<Vm> vm;
};

Env boot(dex::DexFile dexfile, VmLimits limits = {}) {
  Env env;
  manifest::Manifest man;
  man.package = "com.prop.vm";
  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(std::move(dexfile));
  apk.sign("k");
  EXPECT_TRUE(env.device.install(apk).ok());
  env.manifest = man;
  env.vm = std::make_unique<Vm>(env.device, env.manifest, limits);
  env.vm->load_app(
      std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));
  return env;
}

/// One random straight-line arithmetic program, evaluated both by the
/// interpreter and by a host-side shadow evaluator.
class RandomArithProgram : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomArithProgram, InterpreterMatchesShadowEvaluation) {
  support::Rng rng(GetParam() * 2654435761u + 17);
  constexpr int kRegs = 6;
  std::int64_t shadow[kRegs];

  dex::DexBuilder b;
  auto m = b.cls("com.prop.vm.P").static_method("f", 0);
  for (int r = 0; r < kRegs; ++r) {
    const auto v = rng.range(-1000, 1000);
    shadow[r] = v;
    m.const_int(static_cast<std::uint16_t>(r), v);
  }
  const int steps = 10 + static_cast<int>(rng.below(30));
  for (int i = 0; i < steps; ++i) {
    const auto a = static_cast<std::uint16_t>(rng.below(kRegs));
    const auto x = static_cast<std::uint16_t>(rng.below(kRegs));
    const auto y = static_cast<std::uint16_t>(rng.below(kRegs));
    switch (rng.below(5)) {
      case 0:
        m.add(a, x, y);
        shadow[a] = shadow[x] + shadow[y];
        break;
      case 1:
        m.sub(a, x, y);
        shadow[a] = shadow[x] - shadow[y];
        break;
      case 2:
        // Keep magnitudes bounded: multiply by a small constant instead of
        // another register.
        m.const_int(5, 3);
        m.mul(a, x, 5);
        shadow[5] = 3;
        shadow[a] = shadow[x] * 3;
        break;
      case 3:
        m.cmp_lt(a, x, y);
        shadow[a] = shadow[x] < shadow[y] ? 1 : 0;
        break;
      default:
        m.cmp_eq(a, x, y);
        shadow[a] = shadow[x] == shadow[y] ? 1 : 0;
        break;
    }
  }
  const auto out = static_cast<std::uint16_t>(rng.below(kRegs));
  m.ret(out);
  m.done();

  auto env = boot(b.build());
  EXPECT_EQ(env.vm->call_static("com.prop.vm.P", "f").as_int(), shadow[out]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomArithProgram,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(ValueTaint, AlgebraicLaws) {
  Value v(5);
  EXPECT_EQ(v.taint(), 0u);
  v.add_taint(0b101);
  v.add_taint(0b011);
  EXPECT_EQ(v.taint(), 0b111u);  // union
  v.add_taint(0b101);
  EXPECT_EQ(v.taint(), 0b111u);  // idempotent
  Value copy = v;
  EXPECT_EQ(copy.taint(), 0b111u);  // copies carry labels
  copy.set_taint(0);
  EXPECT_EQ(v.taint(), 0b111u);  // clearing a copy leaves the original
}

TEST(Budgets, TightStepBudgetTerminatesLongLoops) {
  dex::DexBuilder b;
  auto m = b.cls("com.prop.vm.P").static_method("f", 1);
  m.label("top");
  m.if_eqz(0, "end");
  m.const_int(1, 1);
  m.sub(0, 0, 1);
  m.jump("top");
  m.label("end");
  m.return_void();
  m.done();
  VmLimits limits;
  limits.max_steps_per_entry = 100;  // loop of 1000 cannot finish
  auto env = boot(b.build(), limits);
  EXPECT_THROW(
      (void)env.vm->call_static("com.prop.vm.P", "f",
                                std::array{Value(1000)}),
      VmException);
  // A fresh entry gets a fresh budget: a short run still succeeds.
  EXPECT_NO_THROW(
      (void)env.vm->call_static("com.prop.vm.P", "f", std::array{Value(3)}));
}

TEST(Budgets, DepthBudgetIndependentOfStepBudget) {
  dex::DexBuilder b;
  b.cls("com.prop.vm.P")
      .static_method("rec", 1)
      .invoke_static("com.prop.vm.P", "rec", {0})
      .done();
  VmLimits limits;
  limits.max_call_depth = 10;
  auto env = boot(b.build(), limits);
  try {
    (void)env.vm->call_static("com.prop.vm.P", "rec", std::array{Value(0)});
    FAIL();
  } catch (const VmException& e) {
    EXPECT_NE(std::string(e.what()).find("StackOverflow"), std::string::npos);
    // The trace depth reflects the configured limit.
    EXPECT_LE(e.trace().size(), 11u);
  }
}

TEST(ValueSemantics, DisplayAndEquality) {
  const std::string s = "s";
  const std::string one = "1";
  EXPECT_EQ(Value().display(), "null");
  EXPECT_EQ(Value(42).display(), "42");
  EXPECT_EQ(Value::of_str(s).display(), "s");
  EXPECT_TRUE(Value().equals(Value()));
  EXPECT_TRUE(Value(1).equals(Value(1)));
  EXPECT_FALSE(Value(1).equals(Value::of_str(one)));
  EXPECT_FALSE(Value(1).equals(Value()));
}

TEST(ValueSemantics, Truthiness) {
  const std::string empty;
  const std::string x = "x";
  EXPECT_FALSE(Value().truthy());
  EXPECT_FALSE(Value(0).truthy());
  EXPECT_TRUE(Value(-1).truthy());
  EXPECT_FALSE(Value::of_str(empty).truthy());
  EXPECT_TRUE(Value::of_str(x).truthy());
}

}  // namespace
}  // namespace dydroid::vm
