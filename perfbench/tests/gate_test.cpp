// Unit tests of the benchmark's correctness gate and its per-app latency
// rule, on tiny corpora.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

Options tiny(Workload workload, const std::string& name) {
  Options o;
  o.workload = workload;
  o.scale = 0.004;
  o.jobs = 2;
  // ctest runs this in the build tree.
  o.work_dir = std::filesystem::current_path() / "perfbench-test-work" / name;
  std::filesystem::remove_all(o.work_dir);
  std::filesystem::create_directories(o.work_dir);
  return o;
}

TEST(Gate, PinnedDigestCatchesOneFlippedReportByte) {
  Plan plan;
  plan.options = tiny(Workload::kMarket, "flip");
  const Options& o = plan.options;
  const auto fixture = set_up(o);
  Batch batch = run_batch(*fixture->pipeline, *fixture, runner_config(o, o.workload));

  plan.golden = o.work_dir / "golden.txt";
  std::ofstream(plan.golden) << format_pin(corpus_kind(o.workload), o.scale,
                                           o.corpus_seed, tally(batch.result, o.jobs))
                             << "\n";
  EXPECT_TRUE(gate_batch(plan, *fixture, batch).mismatches.empty());

  // Flip one byte of one report: the package name is part of its JSON, and
  // no pinned count depends on it.
  auto& outcomes = batch.result.outcomes;
  const auto flipped = std::find_if(outcomes.begin() + 1, outcomes.end(),
                                    [](const auto& x) { return !x.report.package.empty(); });
  ASSERT_NE(flipped, outcomes.end());
  flipped->report.package[0] ^= 0x01;
  const auto gate = gate_batch(plan, *fixture, batch);
  ASSERT_FALSE(gate.mismatches.empty());
  EXPECT_NE(gate.mismatches.front().find("report digest"), std::string::npos)
      << gate.mismatches.front();
}

TEST(Gate, CountsAreNamedWhenTheyDiffer) {
  Tally pinned;
  pinned.digest = "ab";
  pinned.apps = 10;
  pinned.malware = 2;
  Tally got = pinned;
  got.malware = 3;
  const auto diffs = compare_tallies(pinned, got);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0], "malware: pinned 2, got 3");
}

TEST(RescanLatency, HitsCarryTheColdWallTimeSoOnlyMissesAreSampled) {
  const Options o = tiny(Workload::kMarket, "rescan");
  const auto fixture = set_up(o);
  auto config = runner_config(o, Workload::kMarket);
  config.cache_dir = (o.work_dir / "cache").string();
  const Batch cold = run_batch(*fixture->pipeline, *fixture, config);

  // The rescan corpus: every 10th app replaced, the rest served by the cache.
  mix_in_successor(fixture->corpus, o);
  fixture->jobs = dd::driver::jobs_from_corpus(fixture->corpus);
  const Batch warm = run_batch(*fixture->pipeline, *fixture, config);

  std::size_t hits = 0;
  std::vector<double> miss_wall_ms;
  for (std::size_t i = 0; i < warm.result.outcomes.size(); ++i) {
    const auto& outcome = warm.result.outcomes[i];
    if (outcome.cache_hit) {
      ++hits;
      // The outcome codec round-trips wall_ms bit for bit: a hit reports the
      // cold analysis time, not what the lookup cost.
      EXPECT_EQ(outcome.wall_ms, cold.result.outcomes[i].wall_ms) << "app " << i;
    } else {
      miss_wall_ms.push_back(outcome.wall_ms);
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_FALSE(miss_wall_ms.empty());
  EXPECT_EQ(latency_samples({app_wall_ms(warm.result)}), miss_wall_ms);
}

TEST(RescanLatency, EachAppContributesItsMedianAcrossBatches) {
  const double hit = std::numeric_limits<double>::quiet_NaN();
  // App 2 was preempted in the second batch; app 1 was a hit every time.
  const std::vector<std::vector<double>> batches = {
      {1.0, hit, 3.0}, {2.0, hit, 100.0}, {1.5, hit, 4.0}};
  EXPECT_EQ(latency_samples(batches), (std::vector<double>{1.5, 4.0}));
}

TEST(FailedCount, TableIICrashesAreResultsButDriverFailuresCount) {
  dd::driver::CorpusResult result;
  result.outcomes.resize(4);
  for (auto& o : result.outcomes) o.completed = true;
  result.outcomes[0].report.status = dd::core::DynamicStatus::kCrash;
  EXPECT_EQ(count_failed(result), 0u);
  result.outcomes[1].timed_out = true;
  result.outcomes[2].sandbox_fate = dd::driver::SandboxFate::kOomKilled;
  result.outcomes[3].completed = false;
  result.cache_write_failures = 1;
  EXPECT_EQ(count_failed(result), 4u);
}

}  // namespace
