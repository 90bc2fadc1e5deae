// The DyDroid benchmark: three closed-batch workloads driven through the
// public API (appgen::generate_corpus, malware::DroidNative::train,
// core::DyDroid, core::default_stages(), driver::CorpusRunner::run and
// driver::ResultCache), a correctness gate over the per-app reports, and
// the end-to-end and per-layer metric collectors. perfbench/run.py builds
// this library into the `perfbench` binary; perfbench/README.md documents
// every metric and which end-to-end number each layer metric should move.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "appgen/corpus.hpp"
#include "core/pipeline.hpp"
#include "driver/corpus_runner.hpp"
#include "malware/droidnative.hpp"

namespace perfbench {

namespace dd = dydroid;

enum class Workload { kMarket, kCampaign, kRescan };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload workload);

/// The corpus seed `--seed 0` maps to (the paper's crawl month).
inline constexpr std::uint64_t kDefaultCorpusSeed = 20161101;
/// Per-app fuzzing seeds are 1 + corpus index, as in `dydroid survey`.
inline constexpr std::uint64_t kAppSeedBase = 1;
/// rescan replaces every kRescanStride-th app with its successor-corpus twin.
inline constexpr std::size_t kRescanStride = 10;

struct Options {
  Workload workload = Workload::kMarket;
  std::uint64_t corpus_seed = kDefaultCorpusSeed;
  double scale = 1.0;
  std::size_t jobs = 1;
  /// Scratch space for the journal (campaign) and result caches (rescan).
  std::filesystem::path work_dir;
};

/// Everything a timed run needs. Built once per set-up; pinned in memory
/// because the pipeline points at the detector and the jobs reference the
/// corpus apps.
struct Fixture {
  dd::appgen::Corpus corpus;
  dd::malware::DroidNative detector{0.9};
  std::unique_ptr<const dd::core::DyDroid> pipeline;
  std::vector<dd::driver::AppJob> jobs;
  // Set-up stopwatches (seconds).
  double generate_s = 0.0;
  double train_s = 0.0;
  double prime_s = 0.0;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  [[nodiscard]] double setup_s() const { return generate_s + train_s + prime_s; }
};

/// Generate the workload's corpus, train the detector the way `dydroid
/// survey` does (19 families x 4 samples, threshold 0.9) and, for rescan,
/// prime the result cache with the unmodified corpus before mixing in the
/// successor-corpus apps.
[[nodiscard]] std::unique_ptr<Fixture> set_up(const Options& options);

/// Replace every kRescanStride-th app of `corpus` with the same-index app
/// of the corpus generated from corpus_seed + 1.
void mix_in_successor(dd::appgen::Corpus& corpus, const Options& options);

/// The workload's runner configuration: nproc workers, seed base 1, plus
/// the pool and journal (campaign) or the result cache (rescan).
[[nodiscard]] dd::driver::RunnerConfig runner_config(const Options& options,
                                                     Workload workload);

/// Reset on-disk state so every timed run starts alike: a fresh journal for
/// campaign, a copy of the primed store for rescan.
void prepare_run(const Options& options);

/// Replace `dir` with a copy of the primed result cache (store copied,
/// content-addressed blobs hard-linked: they are never rewritten).
void restore_primed(const Options& options, const std::filesystem::path& dir);

/// The rescan workload's live cache directory.
[[nodiscard]] std::filesystem::path cache_dir(const Options& options);

/// One closed batch: one CorpusRunner::run over the fixture's jobs.
struct Batch {
  dd::driver::CorpusResult result;
  double wall_ms = 0.0;  // wall time of run()
  double cpu_ms = 0.0;   // user + sys, self + reaped children, during run()
};

[[nodiscard]] Batch run_batch(const dd::core::DyDroid& pipeline,
                              const Fixture& fixture,
                              const dd::driver::RunnerConfig& config);

// ---- correctness gate -------------------------------------------------------

/// What the gate pins for one corpus: SHA-256 over the per-report SHA-256s
/// of every report JSON in corpus order, and the Table II / measurement
/// counts.
struct Tally {
  std::string digest;
  std::size_t apps = 0;
  std::size_t not_run = 0;
  std::size_t rewriting_failure = 0;
  std::size_t no_activity = 0;
  std::size_t crashed = 0;
  std::size_t exercised = 0;
  std::size_t intercepted = 0;
  std::size_t malware = 0;
  std::size_t vulnerable = 0;
};

[[nodiscard]] Tally tally(const dd::driver::CorpusResult& result,
                          std::size_t threads);

/// Names every field of `actual` that differs from `expected`, with both
/// values; empty when they agree.
[[nodiscard]] std::vector<std::string> compare_tallies(const Tally& expected,
                                                       const Tally& actual);

/// "full" for market and campaign (which must agree), "mixed" for rescan.
[[nodiscard]] std::string_view corpus_kind(Workload workload);

/// One golden-file line: kind, scale, corpus seed, digest and counts.
[[nodiscard]] std::string format_pin(std::string_view kind, double scale,
                                     std::uint64_t corpus_seed,
                                     const Tally& tally);

/// Look up the pinned tally for (kind, scale, corpus seed) in a golden file.
[[nodiscard]] std::optional<Tally> find_pin(const std::filesystem::path& golden,
                                            std::string_view kind, double scale,
                                            std::uint64_t corpus_seed);

/// Apps the driver failed: not completed, sandbox-killed, quarantined or
/// timed out, plus dropped cache writes. Table II crashes are results.
[[nodiscard]] std::size_t count_failed(const dd::driver::CorpusResult& result);

/// Per-app wall times of one batch in corpus order, NaN for every app the
/// batch did not analyze. Cache hits are NaN: they carry the cold run's
/// wall_ms (the outcome codec round-trips it), so their real cost shows as
/// cache.lookup.ms instead.
[[nodiscard]] std::vector<double> app_wall_ms(const dd::driver::CorpusResult& result);

/// Latency samples over a run's batches (each an app_wall_ms vector): for
/// every app analyzed in at least one batch, its median wall time across
/// the batches. A burst of host preemption inflates a few apps of one
/// batch; taking each app's median first keeps it out of the tail.
[[nodiscard]] std::vector<double> latency_samples(
    const std::vector<std::vector<double>>& batches);

/// Re-analyze a spread sample of apps directly through core::DyDroid (no
/// runner, no pool, no cache) and name every app whose report JSON differs
/// from the batch's.
[[nodiscard]] std::vector<std::string> direct_path_mismatches(
    const Fixture& fixture, const dd::driver::CorpusResult& result,
    std::size_t samples);

// ---- statistics -------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// ---- metrics ----------------------------------------------------------------

/// One printed metric. `absent` rows have no measurement on this workload
/// (the layer does not run, or its telemetry stays in pool children); the
/// table prints them as absent and the JSON line as -1, never as 0.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
  bool absent = false;
};

/// Outcome of one benchmark invocation.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;        // sample counts, batch counts
  std::vector<std::string> gate_lines;   // human-readable gate evidence
  std::vector<std::string> mismatches;   // empty = correct
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

struct Plan {
  Options options;
  double seconds = 10.0;
  std::filesystem::path golden;
};

/// An untraced invocation sets up this many times and reports the median.
inline constexpr int kSetups = 3;

/// Untraced invocation: median set-up time over kSetups set-ups, then
/// closed batches until plan.seconds elapse; end-to-end metrics are medians
/// over the batches.
[[nodiscard]] Report measure_end_to_end(const Plan& plan);

/// Traced invocation: one set-up, then alternating untraced and traced
/// batches (U T U T U); per-layer metrics from the first traced batch,
/// trace overhead from the medians.
[[nodiscard]] Report measure_layers(const Plan& plan);

/// The gate's verdict on one batch.
struct GateResult {
  Tally tally;
  std::vector<std::string> lines;       // evidence, for the printed header
  std::vector<std::string> mismatches;  // empty = correct
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Gate one batch: against the golden pin when one exists, plus the
/// direct-path sample, the Table II partition and the failure count.
[[nodiscard]] GateResult gate_batch(const Plan& plan, const Fixture& fixture,
                                    const Batch& batch);

/// Fold a batch's verdict into the invocation's report (evidence lines only
/// when `keep_lines`, so repeated batches do not repeat them).
void absorb_gate(Report& report, GateResult&& gate, bool keep_lines);

}  // namespace perfbench
