// Canonical binary codec tests (docs/CHECKPOINT.md): an AppReport (and its
// driver::AppOutcome journal framing) must survive a serialize/deserialize
// round trip exactly — the JSON of the decoded report is byte-identical to
// the original for every Table II–X field — and the decoder must reject
// damaged payloads with ParseError, never undefined behaviour.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "appgen/corpus.hpp"
#include "core/report_codec.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/outcome_codec.hpp"
#include "privacy/sources.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace dydroid {
namespace {

using core::AppReport;
using support::ByteReader;
using support::ByteWriter;
using support::Bytes;
using support::ParseError;

Bytes encode_report(const AppReport& report) {
  ByteWriter w;
  core::serialize_report(w, report);
  return w.take();
}

AppReport decode_report(const Bytes& bytes) {
  ByteReader r(bytes);
  AppReport report = core::deserialize_report(r);
  EXPECT_TRUE(r.at_end());
  return report;
}

/// A report exercising every serialized field at least once: obfuscation
/// flags (Fig. 3), DCL events with traces (Table III/IV), intercepted
/// binaries with remote provenance, malware hits and privacy leaks
/// (Tables VI–X), VM events and vulnerability findings (Table IX).
AppReport all_fields_report() {
  AppReport report;
  report.package = "com.example.everything";
  report.decompile_failed = false;
  report.static_dcl.dex_dcl = true;
  report.static_dcl.native_dcl = true;
  report.obfuscation.lexical = true;
  report.obfuscation.reflection = true;
  report.obfuscation.native_code = false;
  report.obfuscation.dex_encryption = true;
  report.obfuscation.anti_decompilation = false;
  report.min_sdk = 16;
  report.status = core::DynamicStatus::kExercised;
  report.crash_message = "";
  report.storage_recovered = true;

  core::DclEvent event;
  event.kind = core::CodeKind::Dex;
  event.paths = {"/sdcard/payload.dex", "/data/data/app/code.dex"};
  event.optimized_dir = "/data/data/app/odex";
  event.call_site_class = "Lcom/ads/Loader;";
  event.entity = core::Entity::ThirdParty;
  event.system_binary = false;
  event.integrity_check_before = true;
  vm::StackTraceElement frame;
  frame.class_name = "Lcom/ads/Loader;";
  frame.method_name = "fetch";
  event.trace.push_back(frame);
  frame.method_name = "run";
  event.trace.push_back(frame);
  report.events.push_back(event);

  core::DclEvent native_event;
  native_event.kind = core::CodeKind::Native;
  native_event.paths = {"/system/lib/libc.so"};
  native_event.entity = core::Entity::Own;
  native_event.system_binary = true;
  report.events.push_back(native_event);

  core::BinaryReport binary;
  binary.binary.kind = core::CodeKind::Dex;
  binary.binary.path = "/sdcard/payload.dex";
  binary.binary.set_bytes(
      support::Blob::take(Bytes{0xde, 0xad, 0x00, 0xbe, 0xef}));
  binary.binary.call_site_class = "Lcom/ads/Loader;";
  binary.binary.entity = core::Entity::ThirdParty;
  binary.origin_url = "http://cdn.example.com/payload.dex";
  malware::Detection detection;
  detection.family = "swiss_code_monkeys";
  detection.score = 0.97265625;
  detection.matched_sample = "swiss-03";
  binary.malware = detection;
  privacy::Leak leak;
  leak.type = privacy::DataType::Imei;
  leak.sink_api = "HttpURLConnection.write";
  leak.sink_class = "Lcom/ads/Beacon;";
  leak.sink_method = "send";
  binary.privacy.leaks.push_back(leak);
  report.binaries.push_back(binary);

  core::BinaryReport bare;  // no optionals set
  bare.binary.kind = core::CodeKind::Native;
  bare.binary.path = "/data/data/app/lib/libfoo.so";
  bare.binary.set_bytes(support::Blob{});  // an empty payload
  report.binaries.push_back(bare);

  vm::VmEvent vm_event;
  vm_event.kind = "reflection";
  vm_event.detail = "Class.forName(com.hidden.Impl)";
  report.vm_events.push_back(vm_event);

  core::VulnFinding vuln;
  vuln.kind = core::CodeKind::Dex;
  vuln.category = core::VulnCategory::ExternalStorage;
  vuln.path = "/sdcard/payload.dex";
  report.vulns.push_back(vuln);
  return report;
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

TEST(ReportCodec, AllFieldsRoundTripJsonIdentical) {
  const AppReport original = all_fields_report();
  const AppReport decoded = decode_report(encode_report(original));
  EXPECT_EQ(core::report_to_json(decoded), core::report_to_json(original));
  // Fields the JSON may summarize still round-trip exactly.
  ASSERT_EQ(decoded.binaries.size(), original.binaries.size());
  EXPECT_EQ(decoded.binaries[0].binary.bytes, original.binaries[0].binary.bytes);
  ASSERT_TRUE(decoded.binaries[0].malware.has_value());
  EXPECT_EQ(decoded.binaries[0].malware->score,
            original.binaries[0].malware->score);
  EXPECT_FALSE(decoded.binaries[1].origin_url.has_value());
  EXPECT_FALSE(decoded.binaries[1].malware.has_value());
  ASSERT_EQ(decoded.events.size(), 2u);
  EXPECT_EQ(decoded.events[0].trace.size(), 2u);
  EXPECT_TRUE(decoded.events[0].integrity_check_before);
  EXPECT_TRUE(decoded.events[1].system_binary);
}

TEST(ReportCodec, DecodedBinariesCarryTheirPayloadDigest) {
  // The decoder takes each payload's SHA-256 as it sets the bytes, so a
  // replayed, pooled or cached report carries the digest the verdict memo,
  // the dedup table and the JSON read. (A live report's digest comes from
  // the interceptor; CorpusReportsRoundTripJsonIdentical compares the two
  // through the JSON.)
  const AppReport decoded = decode_report(encode_report(all_fields_report()));
  const std::string json = core::report_to_json(decoded);
  ASSERT_EQ(decoded.binaries.size(), 2u);
  for (const auto& binary : decoded.binaries) {
    const support::Sha256Digest digest =
        support::sha256(binary.binary.bytes.span());
    EXPECT_EQ(binary.binary.digest, digest) << binary.binary.path;
    EXPECT_NE(json.find("\"sha256\": \"" + digest.hex() + "\""),
              std::string::npos)
        << binary.binary.path << "\n" << json;
  }
}

TEST(ReportCodec, DefaultReportRoundTrips) {
  const AppReport decoded = decode_report(encode_report(AppReport{}));
  EXPECT_EQ(core::report_to_json(decoded), core::report_to_json(AppReport{}));
}

TEST(ReportCodec, EveryStatusRoundTrips) {
  for (int s = 0; s < 5; ++s) {
    AppReport report;
    report.status = static_cast<core::DynamicStatus>(s);
    report.crash_message = s == 3 ? "boom" : "";
    const AppReport decoded = decode_report(encode_report(report));
    EXPECT_EQ(decoded.status, report.status) << "status " << s;
    EXPECT_EQ(decoded.crash_message, report.crash_message);
  }
}

TEST(ReportCodec, CorpusReportsRoundTripJsonIdentical) {
  // Every report a real (small) corpus run produces survives the codec.
  appgen::CorpusConfig config;
  config.scale = 0.002;
  const auto corpus = appgen::generate_corpus(config);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  driver::RunnerConfig runner_config;
  runner_config.jobs = 2;
  const auto result = driver::CorpusRunner(pipeline, runner_config).run(corpus);
  ASSERT_GT(result.outcomes.size(), 10u);
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const auto& report = result.outcomes[i].report;
    const AppReport decoded = decode_report(encode_report(report));
    ASSERT_EQ(core::report_to_json(decoded), core::report_to_json(report))
        << "app index " << i;
  }
}

// ---------------------------------------------------------------------------
// Outcome framing (the journal payload).
// ---------------------------------------------------------------------------

TEST(OutcomeCodec, OutcomeRoundTripsWithDriverFields) {
  driver::AppOutcome outcome;
  outcome.report = all_fields_report();
  outcome.seed = 0xBE9C0042ull;
  outcome.job = support::sha256("outcome-codec-job");
  outcome.wall_ms = 12.625;
  outcome.attempts = 2;
  outcome.timed_out = true;
  outcome.quarantined = true;
  const Bytes payload = driver::encode_outcome(17, outcome);
  const auto decoded = driver::decode_outcome(payload);
  EXPECT_EQ(decoded.index, 17u);
  EXPECT_EQ(decoded.outcome.seed, outcome.seed);
  EXPECT_EQ(decoded.outcome.job, outcome.job);
  EXPECT_EQ(decoded.outcome.wall_ms, outcome.wall_ms);
  EXPECT_EQ(decoded.outcome.attempts, 2u);
  EXPECT_TRUE(decoded.outcome.timed_out);
  EXPECT_TRUE(decoded.outcome.quarantined);
  EXPECT_TRUE(decoded.outcome.completed);
  EXPECT_TRUE(decoded.outcome.replayed);
  EXPECT_EQ(core::report_to_json(decoded.outcome.report),
            core::report_to_json(outcome.report));
}

TEST(OutcomeCodec, FateAndSignalRoundTripAndBadFateIsRejected) {
  driver::AppOutcome outcome;
  outcome.report.status = core::DynamicStatus::kCrash;
  outcome.report.crash_message = "sandbox: child SIGKILLed repeatedly";
  outcome.seed = 0xBE9C0007ull;
  outcome.sandbox_fate = driver::SandboxFate::kOomKilled;
  outcome.fatal_signal = SIGKILL;
  const Bytes payload = driver::encode_outcome(3, outcome);
  const auto decoded = driver::decode_outcome(payload);
  EXPECT_EQ(decoded.outcome.sandbox_fate, driver::SandboxFate::kOomKilled);
  EXPECT_EQ(decoded.outcome.fatal_signal, SIGKILL);
  // The fate byte sits after version(1) + index(8) + seed(8) + job(32) +
  // wall(8) + attempts(4) + flags(1); values past kTimedOut are invalid.
  Bytes bad = payload;
  bad[1 + 8 + 8 + 32 + 8 + 4 + 1] = 0x07;
  EXPECT_THROW((void)driver::decode_outcome(bad), ParseError);
}

// ---------------------------------------------------------------------------
// Defensive decode: damage -> ParseError, never UB or a giant allocation.
// ---------------------------------------------------------------------------

TEST(ReportCodec, TruncationAtEveryPointThrowsParseError) {
  const Bytes payload = encode_report(all_fields_report());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    Bytes truncated(payload.begin(), payload.begin() + static_cast<long>(cut));
    ByteReader r(truncated);
    EXPECT_THROW((void)core::deserialize_report(r), ParseError)
        << "cut at " << cut;
  }
}

TEST(ReportCodec, BadEnumThrowsParseError) {
  AppReport report;
  report.status = static_cast<core::DynamicStatus>(4);  // last valid
  Bytes payload = encode_report(report);
  // The status byte follows the empty package (u32 len) + 8 bools +
  // i64 min_sdk.
  const std::size_t status_pos = 4 + 8 + 8;
  ASSERT_LT(status_pos, payload.size());
  payload[status_pos] = 7;  // out of range
  ByteReader r(payload);
  EXPECT_THROW((void)core::deserialize_report(r), ParseError);
}

TEST(ReportCodec, ImplausibleCountThrowsInsteadOfAllocating) {
  AppReport report;
  const Bytes payload = encode_report(report);
  // The events count is the last 16 bytes from the end in an empty report
  // (4 counts of 4 bytes each); inflate it to ~4 billion.
  Bytes inflated = payload;
  const std::size_t events_count_pos = payload.size() - 16;
  inflated[events_count_pos + 0] = 0xff;
  inflated[events_count_pos + 1] = 0xff;
  inflated[events_count_pos + 2] = 0xff;
  inflated[events_count_pos + 3] = 0x7f;
  ByteReader r(inflated);
  EXPECT_THROW((void)core::deserialize_report(r), ParseError);
}

TEST(OutcomeCodec, VersionMismatchAndTrailingBytesThrow) {
  driver::AppOutcome outcome;
  outcome.seed = 1;
  Bytes payload = driver::encode_outcome(0, outcome);
  Bytes wrong_version = payload;
  wrong_version[0] = driver::kOutcomeCodecVersion + 1;
  EXPECT_THROW((void)driver::decode_outcome(wrong_version), ParseError);
  Bytes trailing = payload;
  trailing.push_back(0x00);
  EXPECT_THROW((void)driver::decode_outcome(trailing), ParseError);
  Bytes bad_flags = payload;
  // flags byte sits after version(1) + index(8) + seed(8) + job(32) +
  // wall(8) + attempts(4).
  bad_flags[1 + 8 + 8 + 32 + 8 + 4] = 0xf0;
  EXPECT_THROW((void)driver::decode_outcome(bad_flags), ParseError);
}

}  // namespace
}  // namespace dydroid
