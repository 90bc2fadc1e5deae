#include "common.hpp"

#include <cstdio>
#include <cstdlib>

#include "malware/families.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace dydroid::bench {

namespace {

// Optional fault plan for the bench corpus, from the DYDROID_FAULTS env var
// (docs/FAULTS.md grammar). Absent or empty -> nullptr, and the bench output
// stays byte-identical to a faults-free build.
const support::FaultPlan* faults_from_env() {
  static const support::FaultPlan* plan = []() -> const support::FaultPlan* {
    const char* text = std::getenv("DYDROID_FAULTS");
    if (text == nullptr || text[0] == '\0') return nullptr;
    auto parsed = support::FaultPlan::parse(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bench: ignoring bad DYDROID_FAULTS: %s\n",
                   parsed.error().c_str());
      return nullptr;
    }
    static const support::FaultPlan stored = std::move(parsed.value());
    return &stored;
  }();
  return plan;
}

// Optional write-ahead journal for the bench corpus, from the
// DYDROID_JOURNAL env var (docs/CHECKPOINT.md). Absent or empty -> "", and
// the bench run stays byte-identical to a journal-free run. Set
// DYDROID_RESUME=1 alongside it to replay completed outcomes from that
// journal before running.
std::string journal_from_env() {
  const char* path = std::getenv("DYDROID_JOURNAL");
  return (path == nullptr) ? std::string() : std::string(path);
}

bool resume_from_env() {
  const char* flag = std::getenv("DYDROID_RESUME");
  if (flag == nullptr || flag[0] == '\0') return false;
  // A boolean env hook that treated any non-"0" first byte as true made
  // DYDROID_RESUME=false resume. Accept the usual spellings; warn and
  // default to off on anything else — benches never throw on bad env.
  const std::string text = support::to_lower(flag);
  if (text == "1" || text == "true" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") {
    return false;
  }
  std::fprintf(stderr,
               "bench: ignoring invalid DYDROID_RESUME value \"%s\" "
               "(want 1/true/yes/on or 0/false/no/off)\n",
               flag);
  return false;
}

// Optional Chrome trace for the bench corpus, from the DYDROID_TRACE env
// var (docs/OBSERVABILITY.md). Absent or empty -> "", tracing stays
// disarmed and the hot path keeps its single-branch fast path.
std::string trace_from_env() {
  const char* path = std::getenv("DYDROID_TRACE");
  return (path == nullptr) ? std::string() : std::string(path);
}

// Optional content-addressed result cache for the bench corpus, from the
// DYDROID_CACHE env var (docs/CACHE.md). Absent or empty -> "", and the
// bench run stays byte-identical to a cache-free run.
std::string cache_from_env() {
  const char* dir = std::getenv("DYDROID_CACHE");
  return (dir == nullptr) ? std::string() : std::string(dir);
}

// Optional process-isolation sandbox for the bench corpus, from the
// DYDROID_ISOLATE env var (docs/ISOLATION.md). Truthy spellings (and
// "fork") run every app in a fresh worker (the pool recycling after every
// app, like `--isolate`), "pool" keeps one worker per thread for the whole
// run; clean runs produce byte-identical reports in every mode, so flipping
// this only moves the timing columns.
void isolation_from_env(driver::RunnerConfig& config) {
  const char* flag = std::getenv("DYDROID_ISOLATE");
  if (flag == nullptr || flag[0] == '\0') return;
  const std::string text = support::to_lower(flag);
  if (text == "1" || text == "true" || text == "yes" || text == "on" ||
      text == "fork" || text == "pool") {
    config.isolation_mode = driver::IsolationMode::kPool;
    if (text != "pool") config.pool_recycle_apps = 1;
    return;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") return;
  std::fprintf(stderr,
               "bench: ignoring invalid DYDROID_ISOLATE value \"%s\" "
               "(want 1/true/yes/on/fork, pool, or 0/false/no/off)\n",
               flag);
}

// Optional corpus shard for the bench run, from the DYDROID_SHARD env var
// ("I/N", docs/SHARDING.md). Absent or empty -> {0, 0} (unsharded). Like
// every bench env hook, a malformed value warns and defaults — benches
// never throw on bad env.
struct ShardSpec {
  std::uint32_t index = 0;
  std::uint32_t count = 0;  // 0 = unsharded
};

ShardSpec shard_from_env() {
  const char* text = std::getenv("DYDROID_SHARD");
  if (text == nullptr || text[0] == '\0') return {};
  const std::string spec = text;
  const auto slash = spec.find('/');
  if (slash != std::string::npos) {
    const auto index = support::parse_u64(spec.substr(0, slash));
    const auto count = support::parse_u64(spec.substr(slash + 1));
    if (index.ok() && count.ok() && count.value() > 0 &&
        index.value() < count.value() && count.value() <= 0xFFFFFFFFull) {
      return {static_cast<std::uint32_t>(index.value()),
              static_cast<std::uint32_t>(count.value())};
    }
  }
  std::fprintf(stderr,
               "bench: ignoring invalid DYDROID_SHARD value \"%s\" "
               "(want I/N with 0 <= I < N)\n",
               text);
  return {};
}

}  // namespace

malware::DroidNative make_trained_detector(int samples_per_family) {
  malware::DroidNative detector(0.9);
  support::Rng rng(0xD401DA);
  for (int f = 0; f < malware::kNumFamilies; ++f) {
    const auto family = malware::family_at(f);
    for (const auto& sample :
         malware::generate_training_samples(family, samples_per_family, rng)) {
      detector.train(malware::family_name(family), sample);
    }
  }
  return detector;
}

core::AppReport rerun_app(const appgen::GeneratedApp& app,
                          const malware::DroidNative* detector,
                          const core::RuntimeConfig& runtime,
                          std::uint64_t seed) {
  core::PipelineOptions options;
  options.detector = detector;
  options.runtime = runtime;
  options.scenario_setup = [&app](os::Device& device) {
    appgen::apply_scenario(app.scenario, device);
  };
  core::DyDroid pipeline(std::move(options));
  return pipeline.analyze(app.apk, seed);
}

Measurement measure_corpus(const malware::DroidNative* detector,
                           core::RuntimeConfig runtime,
                           double scale_fallback) {
  support::set_log_level(support::LogLevel::Error);
  Measurement m;
  m.scale = appgen::scale_from_env(scale_fallback);
  appgen::CorpusConfig config;
  config.scale = m.scale;
  m.corpus = appgen::generate_corpus(config);

  // One shared immutable pipeline; per-app scenarios ride on the jobs.
  core::PipelineOptions options;
  options.detector = detector;
  options.runtime = runtime;
  options.faults = faults_from_env();
  const core::DyDroid pipeline(std::move(options));
  driver::RunnerConfig runner_config;
  runner_config.seed_base = kCorpusSeedBase;
  runner_config.journal_path = journal_from_env();
  runner_config.resume =
      !runner_config.journal_path.empty() && resume_from_env();
  runner_config.cache_dir = cache_from_env();
  isolation_from_env(runner_config);
  const ShardSpec shard = shard_from_env();
  runner_config.shard_index = shard.index;
  runner_config.shard_count = shard.count;
  const std::string trace_path = trace_from_env();
  if (!trace_path.empty()) support::set_trace_enabled(true);
  const driver::CorpusRunner runner(pipeline, runner_config);
  auto result = runner.run(m.corpus);
  if (!trace_path.empty()) {
    support::set_trace_enabled(false);
    if (const auto status = support::trace_write_chrome_json(trace_path);
        !status.ok()) {
      std::fprintf(stderr, "bench: %s\n", status.error().c_str());
    } else {
      std::fprintf(stderr, "bench: wrote trace %s (%zu spans)\n",
                   trace_path.c_str(), support::trace_collect().size());
    }
  }

  m.apps.reserve(m.corpus.apps.size());
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    MeasuredApp measured;
    measured.app = &m.corpus.apps[i];
    measured.index = i;
    measured.report = std::move(result.outcomes[i].report);
    m.apps.push_back(std::move(measured));
  }
  m.stats = result.stats;
  m.wall_ms = result.wall_ms;
  m.threads = result.threads;
  return m;
}

void print_title(const std::string& table, const std::string& caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", table.c_str(), caption.c_str());
  std::printf("(measured on the synthetic corpus vs. the paper's population;\n");
  std::printf(" absolute counts scale with DYDROID_SCALE, shapes should match)\n");
  std::printf("================================================================\n");
}

std::string cell(double count, double pct) {
  return support::format("%8.0f (%5.2f%%)", count, pct);
}

void print_row(const std::string& label, double measured, double measured_pct,
               double paper, double paper_pct) {
  std::printf("  %-28s measured %s   paper %s\n", label.c_str(),
              cell(measured, measured_pct).c_str(),
              cell(paper, paper_pct).c_str());
}

void print_footer() { std::printf("\n"); }

}  // namespace dydroid::bench
