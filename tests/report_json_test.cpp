// JSON report serialization tests.
#include <gtest/gtest.h>

#include "appgen/generator.hpp"
#include "core/report_json.hpp"

namespace dydroid::core {
namespace {

TEST(JsonEscape, SpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("ctl\x01", 4)), "ctl\\u0001");
}

AppReport sample_report() {
  appgen::AppSpec spec;
  spec.package = "com.json.sample";
  spec.category = "Tools";
  spec.ad_sdk = true;
  spec.vuln = appgen::VulnKind::DexExternalStorage;
  spec.min_sdk = 16;
  support::Rng rng(1);
  const auto app = appgen::build_app(spec, rng);
  const DyDroid pipeline;
  AnalysisRequest request;
  request.apk = app.apk;
  request.seed = 1;
  request.scenario_setup = &app.scenario;
  return pipeline.analyze(request);
}

TEST(ReportJson, ContainsAllSections) {
  const auto json = report_to_json(sample_report());
  EXPECT_NE(json.find("\"package\": \"com.json.sample\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"exercised\""), std::string::npos);
  EXPECT_NE(json.find("\"events\": ["), std::string::npos);
  EXPECT_NE(json.find("\"binaries\": ["), std::string::npos);
  EXPECT_NE(json.find("\"vulnerabilities\": ["), std::string::npos);
  EXPECT_NE(json.find("\"call_site\": \"com.google.ads.sdk.MediaLoader\""),
            std::string::npos);
  EXPECT_NE(json.find("External storage"), std::string::npos);
}

TEST(ReportJson, BinarySummarizedNotEmbedded) {
  const auto report = sample_report();
  const auto json = report_to_json(report);
  // Size and hash present; raw bytes are not.
  EXPECT_NE(json.find("\"size\": "), std::string::npos);
  EXPECT_NE(json.find("\"sha256\": "), std::string::npos);
  ASSERT_FALSE(report.binaries.empty());
  EXPECT_LT(json.size(), 16 * 1024u);  // compact even with several binaries
}

TEST(ReportJson, BalancedBracesAndQuotes) {
  const auto json = report_to_json(sample_report());
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(ReportJson, NullOriginForLocalLoads) {
  const auto json = report_to_json(sample_report());
  EXPECT_NE(json.find("\"origin_url\": null"), std::string::npos);
}

TEST(ReportJson, EmptyReportSerializes) {
  AppReport report;
  report.package = "com.empty";
  const auto json = report_to_json(report);
  EXPECT_NE(json.find("\"package\": \"com.empty\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"not-run\""), std::string::npos);
}

}  // namespace
}  // namespace dydroid::core
