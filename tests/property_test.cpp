// Property-based sweeps (parameterized over seeds):
//   * container round-trips are identities for arbitrary generated content,
//   * corrupted/truncated inputs NEVER crash — they throw ParseError or
//     fail cleanly (the robustness behind "stable operation with little
//     manual intervention"),
//   * the interpreter is deterministic,
//   * the whole pipeline is total over random corpus apps under random
//     runtime configurations.
#include <gtest/gtest.h>

#include "appgen/generator.hpp"
#include "core/pipeline.hpp"
#include "dex/builder.hpp"
#include "dex/disassembler.hpp"
#include "malware/families.hpp"
#include "nativebin/native_library.hpp"

namespace dydroid {
namespace {

using support::Bytes;
using support::ParseError;
using support::Rng;

/// Random well-formed dex via the family/benign generators (the richest
/// bytecode source we have).
dex::DexFile random_dex(Rng& rng) {
  const auto pick = rng.below(4);
  Bytes bytes;
  if (pick == 3) {
    bytes = malware::generate_benign_payload(rng);
  } else {
    const auto family = malware::family_at(
        static_cast<int>(rng.below(malware::kNumFamilies)));
    malware::PayloadOptions options;
    bytes = malware::generate_payload(family, options, rng);
    if (nativebin::looks_like_native(bytes)) {
      return nativebin::NativeLibrary::deserialize(bytes).code();
    }
  }
  return dex::DexFile::deserialize(bytes);
}

class SeededTest : public ::testing::TestWithParam<std::uint64_t> {};

// ---------------------------------------------------------------------------
// Round-trip identities.
// ---------------------------------------------------------------------------

class DexRoundTrip : public SeededTest {};

TEST_P(DexRoundTrip, SerializeDeserializeIsIdentity) {
  Rng rng(GetParam());
  const auto dexfile = random_dex(rng);
  const auto bytes = dexfile.serialize();
  const auto back = dex::DexFile::deserialize(bytes);
  EXPECT_EQ(back.serialize(), bytes);
  EXPECT_EQ(back.classes().size(), dexfile.classes().size());
  EXPECT_EQ(back.validate(), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DexRoundTrip,
                         ::testing::Range<std::uint64_t>(0, 25));

class DisassemblyTotal : public SeededTest {};

TEST_P(DisassemblyTotal, EveryGeneratedDexDisassembles) {
  Rng rng(GetParam() + 1000);
  const auto dexfile = random_dex(rng);
  const auto text = dex::disassemble(dexfile);
  EXPECT_FALSE(text.empty());
  // Every class appears in the listing.
  for (const auto& cls : dexfile.classes()) {
    EXPECT_NE(text.find(cls.name), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisassemblyTotal,
                         ::testing::Range<std::uint64_t>(0, 10));

class ApkRoundTrip : public SeededTest {};

TEST_P(ApkRoundTrip, GeneratedAppsRoundTrip) {
  Rng rng(GetParam());
  appgen::AppSpec spec;
  spec.package = "com.prop.rt" + std::to_string(GetParam());
  spec.category = "Tools";
  spec.ad_sdk = rng.chance(0.5);
  spec.analytics_sdk = rng.chance(0.3);
  spec.own_native_dcl = rng.chance(0.3);
  spec.lexical = rng.chance(0.5);
  const auto app = appgen::build_app(spec, rng);
  const auto apk = apk::ApkFile::deserialize(app.apk);
  EXPECT_EQ(apk.serialize(), app.apk);
  EXPECT_FALSE(apk.signer().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApkRoundTrip,
                         ::testing::Range<std::uint64_t>(0, 15));

// ---------------------------------------------------------------------------
// Corruption never crashes.
// ---------------------------------------------------------------------------

class CorruptionRobustness : public SeededTest {};

TEST_P(CorruptionRobustness, BitFlippedDexThrowsOrParses) {
  Rng rng(GetParam());
  auto bytes = random_dex(rng).serialize();
  // Flip a handful of random bytes (past the magic so parsing proceeds).
  for (int i = 0; i < 8; ++i) {
    const auto pos = 5 + rng.below(bytes.size() - 5);
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
  }
  try {
    const auto parsed = dex::DexFile::deserialize(bytes);
    // If it parsed, it must also be internally valid (deserialize
    // validates) and re-serializable.
    EXPECT_EQ(parsed.validate(), std::nullopt);
    (void)parsed.serialize();
  } catch (const ParseError&) {
    // Clean rejection is the expected common case.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionRobustness,
                         ::testing::Range<std::uint64_t>(0, 40));

class TruncationRobustness : public SeededTest {};

TEST_P(TruncationRobustness, EveryPrefixThrowsCleanly) {
  Rng rng(GetParam());
  const auto bytes = random_dex(rng).serialize();
  // A spread of prefix lengths, including 0 and len-1.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, bytes.size() / 4, bytes.size() / 2,
        bytes.size() - 1}) {
    Bytes prefix(bytes.begin(),
                 bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)dex::DexFile::deserialize(prefix), ParseError)
        << "prefix " << keep << "/" << bytes.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TruncationRobustness,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(CorruptionRobustnessSingle, RandomBytesAlwaysRejected) {
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    Bytes junk(rng.below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_THROW((void)dex::DexFile::deserialize(junk), ParseError);
    EXPECT_THROW((void)apk::ApkFile::deserialize(junk), ParseError);
    EXPECT_THROW((void)nativebin::NativeLibrary::deserialize(junk),
                 ParseError);
  }
}

// ---------------------------------------------------------------------------
// Determinism & pipeline totality.
// ---------------------------------------------------------------------------

class PipelineTotality : public SeededTest {};

TEST_P(PipelineTotality, RandomSpecsUnderRandomConfigsNeverCrashHost) {
  Rng rng(GetParam() * 31 + 7);
  appgen::AppSpec spec;
  spec.package = "com.prop.total" + std::to_string(GetParam());
  spec.category = "Tools";
  spec.ad_sdk = rng.chance(0.6);
  spec.baidu_remote_sdk = rng.chance(0.2);
  spec.analytics_sdk = rng.chance(0.3);
  spec.own_dex_dcl = rng.chance(0.3);
  spec.sdk_native_dcl = rng.chance(0.4);
  spec.own_native_dcl = rng.chance(0.2);
  spec.lexical = rng.chance(0.5);
  spec.reflection = rng.chance(0.3);
  spec.dex_encryption = rng.chance(0.15);
  spec.anti_repackaging = rng.chance(0.1);
  spec.write_external_permission = rng.chance(0.7);
  spec.crash_on_start = rng.chance(0.05);
  spec.no_activity = rng.chance(0.05);
  if (rng.chance(0.2)) {
    spec.malware.push_back(appgen::MalwarePayloadSpec{
        malware::family_at(static_cast<int>(rng.below(3))),
        {appgen::MalwareTrigger::Connectivity}});
  }
  if (rng.chance(0.2)) {
    spec.vuln = rng.chance(0.5) ? appgen::VulnKind::DexExternalStorage
                                : appgen::VulnKind::NativeOtherAppInternal;
    spec.min_sdk = 16;
  }
  const auto app = appgen::build_app(spec, rng);

  core::PipelineOptions options;
  options.runtime.airplane_mode = rng.chance(0.3);
  options.runtime.wifi_enabled = rng.chance(0.7);
  options.runtime.location_enabled = rng.chance(0.7);
  if (rng.chance(0.3)) {
    options.runtime.time_ms = appgen::kReleaseTimeMs - 1000;
  }
  const core::DyDroid pipeline(std::move(options));
  core::AnalysisRequest request;
  request.apk = app.apk;
  request.seed = GetParam();
  request.scenario_setup = &app.scenario;
  // Must never throw out of the pipeline, whatever the app does inside.
  const auto report = pipeline.analyze(request);
  // Sanity: a status was assigned and the package recovered.
  if (!report.decompile_failed) {
    EXPECT_EQ(report.package, spec.package);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineTotality,
                         ::testing::Range<std::uint64_t>(0, 60));

class PipelineDeterminism : public SeededTest {};

TEST_P(PipelineDeterminism, SameSeedSameReport) {
  Rng rng(GetParam());
  appgen::AppSpec spec;
  spec.package = "com.prop.det";
  spec.category = "Tools";
  spec.ad_sdk = true;
  spec.analytics_sdk = true;
  spec.sdk_leaks = privacy::mask_of(privacy::DataType::Imei);
  const auto app = appgen::build_app(spec, rng);

  auto run = [&]() {
    const core::DyDroid pipeline;
    core::AnalysisRequest request;
    request.apk = app.apk;
    request.seed = GetParam();
    request.scenario_setup = &app.scenario;
    return pipeline.analyze(request);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.status, b.status);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.binaries.size(), b.binaries.size());
  for (std::size_t i = 0; i < a.binaries.size(); ++i) {
    EXPECT_EQ(a.binaries[i].binary.path, b.binaries[i].binary.path);
    EXPECT_EQ(a.binaries[i].binary.bytes, b.binaries[i].binary.bytes);
    EXPECT_EQ(a.binaries[i].privacy.leaks.size(),
              b.binaries[i].privacy.leaks.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDeterminism,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace dydroid
