// Market survey: the Section-V measurement campaign as one program.
//
// Generates a scaled marketplace corpus, trains MiniDroidNative, runs the
// DyDroid pipeline over every app and prints a §V-style summary of all five
// measured aspects — provenance/entity, obfuscation, malware,
// vulnerabilities and privacy — plus a sample per-app JSON record as a
// measurement campaign would persist it.
//
// Scale with DYDROID_SCALE (default here: 0.02 ≈ 1,175 apps).
#include <cstdio>
#include <map>

#include "appgen/corpus.hpp"
#include "core/pipeline.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "malware/droidnative.hpp"
#include "support/log.hpp"

using namespace dydroid;

int main() {
  support::set_log_level(support::LogLevel::Error);
  const double scale = appgen::scale_from_env(0.02);

  // Corpus + detector.
  appgen::CorpusConfig config;
  config.scale = scale;
  const auto corpus = appgen::generate_corpus(config);
  const auto detector = malware::paper_detector();
  std::printf("surveying %zu apps (scale %.3f), detector trained on %zu"
              " samples\n\n",
              corpus.apps.size(), scale, detector.training_size());

  // The campaign: one shared pipeline mapped over the corpus by the
  // parallel driver (DYDROID_JOBS workers, deterministic per-app seeds).
  core::PipelineOptions options;
  options.detector = &detector;
  const core::DyDroid pipeline(std::move(options));
  driver::RunnerConfig runner_config;
  runner_config.seed_base = 1;  // app N runs with seed 1 + N
  const driver::CorpusRunner runner(pipeline, runner_config);
  const auto result = runner.run(corpus);

  std::size_t exercised = 0, intercepted = 0, remote = 0, own_dcl = 0,
              third_dcl = 0, packed = 0, lexical = 0, malware_apps = 0,
              vulnerable = 0, leaky = 0;
  std::map<std::string, int> families;
  std::string sample_json;
  for (const auto& outcome : result.outcomes) {
    const auto& report = outcome.report;

    if (report.status == core::DynamicStatus::kExercised) ++exercised;
    const bool hit_dex = report.intercepted(core::CodeKind::Dex);
    const bool hit_native = report.intercepted(core::CodeKind::Native);
    if (hit_dex || hit_native) ++intercepted;
    if (!report.remote_loaded().empty()) ++remote;
    const auto dex_use = report.entity_use(core::CodeKind::Dex);
    const auto native_use = report.entity_use(core::CodeKind::Native);
    if (dex_use.own || native_use.own) ++own_dcl;
    if (dex_use.third_party || native_use.third_party) ++third_dcl;
    if (report.obfuscation.dex_encryption) ++packed;
    if (report.obfuscation.lexical) ++lexical;
    const auto hits = report.malware_loaded();
    if (!hits.empty()) {
      ++malware_apps;
      for (const auto* hit : hits) ++families[hit->malware->family];
      if (sample_json.empty()) {
        sample_json = core::report_to_json(report);
      }
    }
    if (!report.vulns.empty()) ++vulnerable;
    for (const auto& binary : report.binaries) {
      if (!binary.privacy.leaks.empty()) {
        ++leaky;
        break;
      }
    }
  }

  std::printf("== survey summary ==============================\n");
  std::printf("corpus wall time:          %.1f ms on %zu worker(s)"
              " (%.0f apps/s)\n",
              result.wall_ms, result.threads,
              result.wall_ms > 0
                  ? 1000.0 * static_cast<double>(result.outcomes.size()) /
                        result.wall_ms
                  : 0.0);
  std::printf("exercised:                 %zu\n", exercised);
  std::printf("apps with intercepted DCL: %zu\n", intercepted);
  std::printf("  third-party initiated:   %zu\n", third_dcl);
  std::printf("  developer initiated:     %zu\n", own_dcl);
  std::printf("policy violators (remote): %zu\n", remote);
  std::printf("packed (DEX encryption):   %zu\n", packed);
  std::printf("lexically obfuscated:      %zu\n", lexical);
  std::printf("apps loading malware:      %zu\n", malware_apps);
  for (const auto& [family, count] : families) {
    std::printf("    %-26s %d file(s)\n", family.c_str(), count);
  }
  std::printf("code-injection vulnerable: %zu\n", vulnerable);
  std::printf("apps whose loaded code leaks privacy: %zu\n", leaky);

  if (!sample_json.empty()) {
    std::printf("\n== sample per-app JSON record (first flagged app) ==\n%s",
                sample_json.c_str());
  }
  return 0;
}
