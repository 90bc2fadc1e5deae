// Golden reports: the `dydroid survey` default corpus (scale 0.02, corpus
// seed 20161101, seed base 1, the paper-trained detector) must reproduce
// these pinned values at any worker count: the SHA-256 over every report's
// JSON in corpus order, the Table II outcome histogram and the headline
// counts. A change that claims "same reports" proves it here, against a
// fixed point rather than against itself. Re-pinning is a behaviour change
// and comes with an EXPERIMENTS.md note.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "appgen/corpus.hpp"
#include "core/pipeline.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "malware/droidnative.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"

namespace dydroid {
namespace {

constexpr const char* kReportsSha256 =
    "05e3c0b1db975bbe8d5eddc47596f7b02053fcbb83fb8e57ee2cb8b6d6cfd018";

class GoldenReport : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenReport, SurveyCorpusMatchesPinnedReports) {
  support::set_log_level(support::LogLevel::Error);
  appgen::CorpusConfig config;
  config.scale = 0.02;
  config.seed = 20161101;
  const auto corpus = appgen::generate_corpus(config);
  const auto detector = malware::paper_detector();
  core::PipelineOptions options;
  options.detector = &detector;
  const core::DyDroid pipeline(std::move(options));
  driver::RunnerConfig runner_config;
  runner_config.seed_base = 1;
  runner_config.jobs = GetParam();
  const auto result = driver::CorpusRunner(pipeline, runner_config).run(corpus);

  std::string reports;
  for (const auto& outcome : result.outcomes) {
    reports += core::report_to_json(outcome.report);
  }
  EXPECT_EQ(support::sha256(reports).hex(), kReportsSha256);

  const auto& stats = result.stats;
  EXPECT_EQ(stats.apps, 1175u);
  EXPECT_EQ(stats.not_run, 252u);
  EXPECT_EQ(stats.rewriting_failure, 9u);
  EXPECT_EQ(stats.no_activity, 1u);
  EXPECT_EQ(stats.crashed, 4u);
  EXPECT_EQ(stats.exercised, 909u);
  EXPECT_EQ(stats.intercepted, 619u);
  EXPECT_EQ(stats.remote_loaders, 1u);
  EXPECT_EQ(stats.malware_carriers, 4u);
  EXPECT_EQ(stats.vulnerable, 2u);
}

INSTANTIATE_TEST_SUITE_P(Workers, GoldenReport,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

}  // namespace
}  // namespace dydroid
