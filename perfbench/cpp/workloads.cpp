// Workload set-up, closed batches and the untraced end-to-end metrics.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "malware/families.hpp"
#include "perfbench.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

fs::path primed_dir(const Options& o) { return o.work_dir / "primed"; }
fs::path journal_path(const Options& o) { return o.work_dir / "campaign.journal"; }

dd::appgen::Corpus generate(const Options& o, std::uint64_t seed) {
  dd::appgen::CorpusConfig config;
  config.scale = o.scale;
  config.seed = seed;
  return dd::appgen::generate_corpus(config);
}

/// The detector `dydroid survey` trains: 19 families x 4 samples.
void train(dd::malware::DroidNative& detector) {
  dd::support::Rng rng(0xD401DA);
  for (int f = 0; f < dd::malware::kNumFamilies; ++f) {
    const auto family = dd::malware::family_at(f);
    for (const auto& sample :
         dd::malware::generate_training_samples(family, 4, rng)) {
      detector.train(dd::malware::family_name(family), sample);
    }
  }
}

double cpu_ms_now() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(self.ru_utime) + ms(self.ru_stime) + ms(children.ru_utime) +
         ms(children.ru_stime);
}

/// Restart the kernel's resident-set high-water mark, so the peak covers
/// the timed batches rather than set-up. False when the kernel refuses.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// CPU time the hypervisor gave to other guests (the `steal` column of
/// /proc/stat) summed over all CPUs, in seconds; -1 when unreadable.
double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  unsigned long long ticks[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return -1.0;
  for (auto& t : ticks) stat >> t;
  if (!stat) return -1.0;
  return static_cast<double>(ticks[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// This process's resident-set high-water mark in MB (10^6 bytes).
double self_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;
    }
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) * 1024.0 / 1e6;
}

/// High-water mark of the largest reaped child in MB: on campaign the pool
/// workers, which run() reaps before it returns; 0 when no child ran. Set-up
/// forks nothing, so this covers the timed batches only.
double children_peak_rss_mb() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss) * 1024.0 / 1e6;
}

Metric metric(std::string name, double value, std::string unit,
              std::string note = {}) {
  return Metric{std::move(name), value, std::move(unit), std::move(note), false};
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "market") return Workload::kMarket;
  if (name == "campaign") return Workload::kCampaign;
  if (name == "rescan") return Workload::kRescan;
  return std::nullopt;
}

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::kMarket: return "market";
    case Workload::kCampaign: return "campaign";
    case Workload::kRescan: return "rescan";
  }
  return "?";
}

fs::path cache_dir(const Options& o) { return o.work_dir / "cache"; }

void mix_in_successor(dd::appgen::Corpus& corpus, const Options& o) {
  auto successor = generate(o, o.corpus_seed + 1);
  const std::size_t n = std::min(corpus.apps.size(), successor.apps.size());
  for (std::size_t i = 0; i < n; i += kRescanStride) {
    corpus.apps[i] = std::move(successor.apps[i]);
  }
}

std::unique_ptr<Fixture> set_up(const Options& o) {
  auto fixture = std::make_unique<Fixture>();
  dd::support::Stopwatch clock;
  fixture->corpus = generate(o, o.corpus_seed);
  fixture->generate_s = clock.reset() / 1e3;
  train(fixture->detector);
  fixture->train_s = clock.reset() / 1e3;

  dd::core::PipelineOptions options;
  options.detector = &fixture->detector;
  fixture->pipeline = std::make_unique<const dd::core::DyDroid>(std::move(options));

  if (o.workload == Workload::kRescan) {
    // Prime with the unmodified corpus, then turn it into the market
    // update the timed runs re-survey.
    fs::remove_all(primed_dir(o));
    clock.reset();
    auto config = runner_config(o, Workload::kMarket);
    config.cache_dir = primed_dir(o).string();
    const auto primed =
        dd::driver::CorpusRunner(*fixture->pipeline, config).run(fixture->corpus);
    if (primed.completed() != fixture->corpus.apps.size()) {
      throw std::runtime_error("rescan: priming did not complete every app");
    }
    fixture->prime_s = clock.reset() / 1e3;
    mix_in_successor(fixture->corpus, o);
    fixture->generate_s += clock.reset() / 1e3;
  }
  fixture->jobs = dd::driver::jobs_from_corpus(fixture->corpus);
  return fixture;
}

dd::driver::RunnerConfig runner_config(const Options& o, Workload workload) {
  dd::driver::RunnerConfig config;
  config.jobs = o.jobs;
  config.seed_base = kAppSeedBase;
  if (workload == Workload::kCampaign) {
    config.isolation_mode = dd::driver::IsolationMode::kPool;
    config.journal_path = journal_path(o).string();
    config.journal_fsync = false;
  } else if (workload == Workload::kRescan) {
    config.cache_dir = cache_dir(o).string();
  }
  return config;
}

void restore_primed(const Options& o, const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy_file(primed_dir(o) / "results.dyc", dir / "results.dyc");
  // Flush the copy now, so its writeback does not land inside a timed run.
  if (const int fd = ::open((dir / "results.dyc").c_str(), O_RDONLY); fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  if (fs::exists(primed_dir(o) / "blobs")) {
    fs::copy(primed_dir(o) / "blobs", dir / "blobs",
             fs::copy_options::recursive | fs::copy_options::create_hard_links);
  }
}

void prepare_run(const Options& o) {
  if (o.workload == Workload::kCampaign) fs::remove(journal_path(o));
  if (o.workload == Workload::kRescan) restore_primed(o, cache_dir(o));
}

Batch run_batch(const dd::core::DyDroid& pipeline, const Fixture& fixture,
                const dd::driver::RunnerConfig& config) {
  Batch batch;
  const dd::driver::CorpusRunner runner(pipeline, config);
  const double cpu_before = cpu_ms_now();
  const dd::support::Stopwatch clock;
  batch.result = runner.run(std::span<const dd::driver::AppJob>(fixture.jobs));
  batch.wall_ms = clock.elapsed_ms();
  batch.cpu_ms = cpu_ms_now() - cpu_before;
  return batch;
}

Report measure_end_to_end(const Plan& plan) {
  const Options& o = plan.options;
  Report report;

  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < kSetups; ++i) {
    fixture.reset();  // one corpus in memory at a time
    fixture = set_up(o);
    setup_s.push_back(fixture->setup_s());
  }

  const auto config = runner_config(o, o.workload);
  const bool peak_reset = reset_peak_rss();
  const double steal_before = host_steal_s();
  std::vector<double> apps_per_s, cpu_per_app;
  std::vector<std::vector<double>> app_walls;
  std::string first_digest;
  const dd::support::Stopwatch window;
  int batches = 0;
  constexpr int kMinBatches = 3;  // a median needs a middle
  while (batches < kMinBatches || window.elapsed_s() < plan.seconds) {
    prepare_run(o);
    const Batch batch = run_batch(*fixture->pipeline, *fixture, config);
    GateResult gate = gate_batch(plan, *fixture, batch);
    if (batches == 0) {
      first_digest = gate.tally.digest;
    } else if (gate.tally.digest != first_digest) {
      gate.mismatches.push_back("batch " + std::to_string(batches) +
                                ": report digest differs from batch 0");
    }
    absorb_gate(report, std::move(gate), batches == 0);

    const auto apps = static_cast<double>(batch.result.completed());
    apps_per_s.push_back(apps * 1e3 / batch.wall_ms);
    cpu_per_app.push_back(batch.cpu_ms / apps);
    app_walls.push_back(app_wall_ms(batch.result));
    ++batches;
  }
  const double steal_pct =
      steal_before < 0.0
          ? -1.0
          : 100.0 * (host_steal_s() - steal_before) /
                (window.elapsed_s() *
                 static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN))));
  const auto latency = latency_samples(app_walls);

  const auto range = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.5g..%.5g", v.front(), v.back());
    return std::string(buf);
  };
  report.notes.push_back(std::to_string(fixture->jobs.size()) + " apps, " +
                         std::to_string(o.jobs) + " workers; per batch: apps_per_s " +
                         range(apps_per_s) + "; set-ups " + range(setup_s) + " s");
  if (steal_pct >= 0.0) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "host steal %.2f%% of CPU time during the batches",
                  steal_pct);
    report.notes.push_back(buf);
  }
  const std::string per_batch = "median of " + std::to_string(batches) + " batches";
  const std::string latency_note =
      std::to_string(latency.size()) + " apps, each its median over " +
      std::to_string(batches) + " batches" +
      (o.workload == Workload::kRescan ? " (cache misses only)" : "");
  report.metrics = {
      metric("apps_per_s", median(apps_per_s), "1/s", per_batch),
      metric("app_ms_p50", quantile(latency, 0.50), "ms", latency_note),
      metric("app_ms_p99", quantile(latency, 0.99), "ms", latency_note),
      metric("cpu_ms_per_app", median(cpu_per_app), "ms",
             per_batch + ", user+sys incl. reaped children"),
      metric("peak_rss_mb", self_peak_rss_mb() + children_peak_rss_mb(), "MB",
             std::string(peak_reset ? "high-water mark over the timed batches"
                                    : "high-water mark since process start") +
                 (o.workload == Workload::kCampaign
                      ? ", plus the largest pool worker's"
                      : "")),
      metric("setup_s", median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()) + " set-ups"),
  };
  return report;
}

}  // namespace perfbench
