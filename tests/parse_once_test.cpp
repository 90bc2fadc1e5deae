// Parse-once pipeline guard (docs/PIPELINE.md): the subject APK container is
// deserialized exactly once per analysis attempt. Every later consumer — the
// rewriter, the device install, the VM loader — works from the shared
// ApkImage (or a cheap Blob view of it), never from a re-parse. The
// `pipeline.parses` counter is incremented only by ApkImage::parse, so this
// test pins the whole-pipeline parse count and fails if a re-parse sneaks
// back into any stage. Likewise `pipeline.dex_parses` (DexFile::deserialize)
// pins classes.dex to the decompiler's one parse, which the VM runs.
#include <gtest/gtest.h>

#include <cstdint>

#include "appgen/generator.hpp"
#include "core/pipeline.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace dydroid {
namespace {

appgen::GeneratedApp make_app(bool write_permission,
                              bool dead_dex_dcl = false) {
  appgen::AppSpec spec;
  spec.package = "com.example.parseonce";
  spec.category = "TOOLS";
  spec.write_external_permission = write_permission;
  spec.own_dex_dcl = !dead_dex_dcl;
  spec.dead_dex_dcl = dead_dex_dcl;
  support::Rng rng(0x9A25E01);
  return appgen::build_app(spec, rng);
}

std::uint64_t counter_value(const support::MetricsSnapshot& snapshot,
                            std::string_view name) {
  const auto* counter = snapshot.counter(name);
  return counter == nullptr ? 0u : counter->value;
}

struct Analyzed {
  core::AppReport report;
  support::MetricsSnapshot metrics;
};

Analyzed analyze_with_metrics(const appgen::GeneratedApp& app) {
  support::set_log_level(support::LogLevel::Error);
  support::set_metrics_enabled(true);
  support::metrics_reset();
  const core::DyDroid pipeline;
  core::AnalysisRequest request;
  request.apk = app.apk;
  request.seed = 0x1234;
  request.scenario_setup = &app.scenario;
  Analyzed analyzed{pipeline.analyze(request), support::metrics_snapshot()};
  support::set_metrics_enabled(false);
  EXPECT_NE(analyzed.report.status, core::DynamicStatus::kNotRun)
      << "guard app must traverse the dynamic stage";
  return analyzed;
}

TEST(ParseOnce, NonRewrittenAppParsesItsContainerExactlyOnce) {
  // The app already holds WRITE_EXTERNAL_STORAGE, so no rewrite happens and
  // the StaticStage parse is the only container deserialization.
  const auto snapshot = analyze_with_metrics(make_app(true)).metrics;
  EXPECT_EQ(counter_value(snapshot, "pipeline.parses"), 1u);
}

TEST(ParseOnce, RewrittenAppStillParsesExactlyOnce) {
  // The permission rewrite repacks the container (ApkImage::from_file — a
  // serialize, counted as copied bytes), but must not re-parse it: the
  // install and the VM consume the rewritten image directly.
  const auto snapshot = analyze_with_metrics(make_app(false)).metrics;
  EXPECT_EQ(counter_value(snapshot, "pipeline.parses"), 1u);
  EXPECT_GT(counter_value(snapshot, "pipeline.bytes_copied"), 0u);
}

TEST(ParseOnce, VmRunsTheDecompilersDexParse) {
  // A dead DCL call site passes the static filter, so the app is exercised,
  // but it loads no code at runtime: the decompiler's parse of classes.dex
  // is the only dex parse, with or without the permission rewrite.
  for (const bool write_permission : {true, false}) {
    SCOPED_TRACE(write_permission ? "holds WRITE_EXTERNAL_STORAGE"
                                  : "rewritten");
    const auto analyzed =
        analyze_with_metrics(make_app(write_permission, true));
    EXPECT_EQ(analyzed.report.status, core::DynamicStatus::kExercised);
    EXPECT_TRUE(analyzed.report.events.empty());
    EXPECT_TRUE(analyzed.report.binaries.empty());
    EXPECT_EQ(counter_value(analyzed.metrics, "pipeline.dex_parses"), 1u);
  }
}

}  // namespace
}  // namespace dydroid
