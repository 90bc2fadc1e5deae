// Per-layer metrics from one traced batch: the program's own spans and
// counters, the benchmark's stage decorators, and offline replays of the
// per-binary analyses, the journal encoder and cache inserts.
#include <atomic>
#include <chrono>
#include <map>

#include "apk/apk.hpp"
#include "core/stages.hpp"
#include "dex/dexfile.hpp"
#include "driver/outcome_codec.hpp"
#include "driver/result_cache.hpp"
#include "perfbench.hpp"
#include "privacy/flowdroid.hpp"
#include "support/bytes.hpp"
#include "support/hash.hpp"
#include "support/trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin).count();
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Calls into one decorated stage and the time they took.
struct StageClock {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
};

/// Times its inner stage. It keeps the stage's name(), so the pipeline's
/// "stage" spans and the result cache's config fingerprint do not change.
class TimedStage final : public dd::core::Stage {
 public:
  TimedStage(std::unique_ptr<const dd::core::Stage> inner, StageClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

  [[nodiscard]] dd::core::StageResult run(
      dd::core::AnalysisContext& ctx) const override {
    // Recorded on every exit, including an exception the pipeline converts.
    struct Record {
      StageClock& clock;
      Clock::time_point begin = Clock::now();
      ~Record() {
        clock.calls.fetch_add(1, std::memory_order_relaxed);
        clock.ns.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - begin)
                    .count()),
            std::memory_order_relaxed);
      }
    } record{clock_};
    return inner_->run(ctx);
  }

 private:
  std::unique_ptr<const dd::core::Stage> inner_;
  StageClock& clock_;
};

/// core::default_stages(), each wrapped in a TimedStage, under the plain
/// pipeline's options.
struct DecoratedPipeline {
  std::map<std::string, StageClock, std::less<>> clocks;  // stable nodes
  std::unique_ptr<const dd::core::DyDroid> pipeline;

  explicit DecoratedPipeline(const dd::core::DyDroid& plain) {
    std::vector<std::unique_ptr<const dd::core::Stage>> stages;
    for (auto& stage : dd::core::default_stages()) {
      StageClock& clock = clocks[std::string(stage->name())];
      stages.push_back(std::make_unique<TimedStage>(std::move(stage), clock));
    }
    pipeline = std::make_unique<const dd::core::DyDroid>(plain.options(),
                                                         std::move(stages));
  }

  [[nodiscard]] std::uint64_t calls(std::string_view stage) const {
    const auto it = clocks.find(stage);
    return it == clocks.end() ? 0 : it->second.calls.load();
  }
  [[nodiscard]] double mean_ms(std::string_view stage) const {
    const auto it = clocks.find(stage);
    const std::uint64_t n = calls(stage);
    return n == 0 ? 0.0 : static_cast<double>(it->second.ns.load()) / 1e6 /
                              static_cast<double>(n);
  }
};

/// Span durations (ms) of one traced batch, keyed "<cat>.<name>".
class Spans {
 public:
  explicit Spans(const std::vector<dd::support::TraceEvent>& events) {
    for (const auto& e : events) {
      std::string key(e.cat);
      key += '.';
      key += e.name;
      ms_[key].push_back(static_cast<double>(e.dur_ns) / 1e6);
    }
  }
  [[nodiscard]] const std::vector<double>& of(std::string_view key) const {
    static const std::vector<double> kNone;
    const auto it = ms_.find(key);
    return it == ms_.end() ? kNone : it->second;
  }
  [[nodiscard]] double sum(std::string_view key) const {
    return mean(of(key)) * static_cast<double>(of(key).size());
  }

 private:
  std::map<std::string, std::vector<double>, std::less<>> ms_;
};

double counter(const dd::support::MetricsSnapshot& snapshot,
               std::string_view name) {
  const auto* c = snapshot.counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value);
}

/// A span histogram of the metrics registry, in ms (us resolution; the
/// p99 interpolates inside a power-of-two bucket).
struct HistogramMs {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p99 = 0.0;
  double sum = 0.0;
};

HistogramMs histogram_ms(const dd::support::MetricsSnapshot& snapshot,
                         std::string_view name) {
  const auto* h = snapshot.histogram(name);
  if (h == nullptr) return {};
  return {h->observations, h->mean_us() / 1e3, h->quantile_us(0.99) / 1e3,
          static_cast<double>(h->sum_us) / 1e3};
}

/// Register every metric name the pooled batch records. A pool child forked
/// while another worker holds a registry mutex would deadlock on it, and
/// registering a new name is what takes the metrics registry's mutex.
void preregister_pool_metrics() {
  dd::support::set_metrics_enabled(true);
  for (const char* name : {"sandbox.pool.rpcs", "sandbox.pool.spawned",
                           "runner.apps", "journal.append_bytes",
                           "journal.appends"}) {
    dd::support::count(name, 0);
  }
  for (const char* name : {"sandbox.pool.spawn", "sandbox.pool.rpc",
                           "runner.app_wall", "journal.append",
                           "journal.append_write"}) {
    dd::support::observe_us(name, 0);
  }
  dd::support::set_metrics_enabled(false);
}

/// Replay every intercepted binary through DroidNative::scan and, for DEX
/// code, privacy::analyze_privacy (timed without the container parse).
struct PerBinaryReplay {
  std::vector<double> scan_ms;
  std::vector<double> taint_ms;
};

PerBinaryReplay replay_per_binary(const Fixture& fixture,
                                  const dd::driver::CorpusResult& result) {
  PerBinaryReplay replay;
  for (const auto& outcome : result.outcomes) {
    for (const auto& binary : outcome.report.binaries) {
      const auto& bytes = binary.binary.bytes;
      auto begin = Clock::now();
      const auto detection = fixture.detector.scan(bytes);
      replay.scan_ms.push_back(ms_since(begin));
      (void)detection;
      if (binary.binary.kind != dd::core::CodeKind::Dex) continue;
      std::optional<dd::dex::DexFile> dex;
      try {
        if (dd::dex::looks_like_dex(bytes)) {
          dex = dd::dex::DexFile::deserialize(bytes);
        } else if (dd::apk::looks_like_apk(bytes)) {
          dex = dd::apk::ApkFile::deserialize(bytes).read_classes_dex();
        }
      } catch (const dd::support::ParseError&) {
        continue;  // the stage logs and skips these too
      }
      if (!dex.has_value()) continue;
      begin = Clock::now();
      const auto privacy = dd::privacy::analyze_privacy(*dex);
      replay.taint_ms.push_back(ms_since(begin));
      (void)privacy;
    }
  }
  return replay;
}

/// Encode every outcome the way the journal does (encode cost alone).
std::vector<double> replay_journal_encode(const dd::driver::CorpusResult& result) {
  std::vector<double> ms;
  dd::support::ByteWriter writer;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    writer.clear();
    const auto begin = Clock::now();
    dd::driver::encode_outcome_into(i, result.outcomes[i], writer);
    ms.push_back(ms_since(begin));
  }
  return ms;
}

/// Insert every cache miss of the batch into a fresh copy of the primed
/// store, one at a time (the runner does not time its inserts).
std::vector<double> replay_cache_inserts(const Options& o, const Fixture& fixture,
                                         const dd::driver::CorpusResult& result) {
  const fs::path dir = o.work_dir / "insert-replay";
  restore_primed(o, dir);
  std::vector<double> ms;
  {
    const auto fingerprint = dd::driver::config_fingerprint(*fixture.pipeline);
    auto opened = dd::driver::ResultCache::open(dir.string(), fingerprint);
    if (!opened.ok()) throw std::runtime_error("cache replay: " + opened.error());
    auto cache = std::move(opened).take();
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      if (result.outcomes[i].cache_hit) continue;
      dd::driver::CacheKey key;
      key.apk = dd::support::sha256(fixture.jobs[i].apk.span());
      key.config = fingerprint;
      key.seed = dd::driver::seed_for_app(kAppSeedBase, i);
      const auto begin = Clock::now();
      cache.insert(key, result.outcomes[i]);
      ms.push_back(ms_since(begin));
    }
    (void)cache.seal();
  }
  fs::remove_all(dir);
  return ms;
}

}  // namespace

Report measure_layers(const Plan& plan) {
  const Options& o = plan.options;
  const bool campaign = o.workload == Workload::kCampaign;
  const bool rescan = o.workload == Workload::kRescan;
  Report report;
  const auto fixture = set_up(o);
  const auto config = runner_config(o, o.workload);
  report.notes.push_back(std::to_string(fixture->jobs.size()) + " apps, " +
                         std::to_string(o.jobs) + " workers");

  std::string digest;
  const auto gated = [&](const Batch& batch, const std::string& label) {
    GateResult gate = gate_batch(plan, *fixture, batch);
    const bool first = digest.empty();
    if (first) {
      digest = gate.tally.digest;
    } else if (gate.tally.digest != digest) {
      gate.mismatches.push_back(label + ": report digest differs from the "
                                "first untraced batch");
    }
    absorb_gate(report, std::move(gate), first);
  };
  const auto apps_per_s = [](const Batch& batch) {
    return static_cast<double>(batch.result.completed()) * 1e3 / batch.wall_ms;
  };
  const auto untraced_apps_per_s = [&](const std::string& label) {
    prepare_run(o);
    const Batch batch = run_batch(*fixture->pipeline, *fixture, config);
    gated(batch, label);
    return apps_per_s(batch);
  };

  // Ring room for every span of the batch (about 11 per app), split over
  // the workers, with headroom for an uneven split.
  const std::size_t ring = fixture->jobs.size() * 11 * 13 /
                               (10 * std::max<std::size_t>(o.jobs, 1)) +
                           4096;
  // Spans go to per-thread rings (ns resolution, exact percentiles) except
  // in the pooled batch, which records metrics only: its children are forked
  // by workers that register their rings under a mutex as they start, and a
  // child forked while that mutex is held deadlocks on its first span.
  const auto traced = [&](const dd::core::DyDroid& pipeline,
                          const dd::driver::RunnerConfig& traced_config,
                          bool span_rings) {
    if (span_rings) dd::support::trace_reset(ring);
    dd::support::metrics_reset();
    dd::support::set_metrics_enabled(true);
    if (span_rings) dd::support::set_trace_enabled(true);
    prepare_run(o);
    Batch batch = run_batch(pipeline, *fixture, traced_config);
    dd::support::set_trace_enabled(false);
    dd::support::set_metrics_enabled(false);
    if (const auto dropped = dd::support::trace_dropped();
        span_rings && dropped > 0) {
      report.notes.push_back("warning: " + std::to_string(dropped) +
                             " trace events dropped; span rows undercount");
    }
    return batch;
  };

  std::vector<double> untraced_aps{untraced_apps_per_s("untraced batch 1")};

  // campaign's pool overhead is measured against market's attempt time on
  // the same corpus; the thread-mode batch also proves campaign == market.
  double market_attempt_ms = 0.0;
  if (campaign) {
    const Batch reference =
        traced(*fixture->pipeline, runner_config(o, Workload::kMarket), true);
    market_attempt_ms = Spans(dd::support::trace_collect()).sum("runner.attempt");
    gated(reference, "thread-mode reference batch");
    preregister_pool_metrics();
  }

  const DecoratedPipeline decorated(*fixture->pipeline);
  if (dd::driver::config_fingerprint(*decorated.pipeline) !=
      dd::driver::config_fingerprint(*fixture->pipeline)) {
    report.mismatches.push_back("stage decorators changed the config fingerprint");
  }
  const Batch batch = traced(*decorated.pipeline, config, !campaign);
  const Spans spans(campaign ? std::vector<dd::support::TraceEvent>{}
                             : dd::support::trace_collect());
  const auto snapshot = dd::support::metrics_snapshot();
  gated(batch, "traced batch");
  const double store_mb =
      rescan ? static_cast<double>(fs::file_size(cache_dir(o) / "results.dyc")) / 1e6
             : 0.0;

  // Tracing overhead: untraced and traced batches alternate, U T U T U.
  std::vector<double> traced_aps{apps_per_s(batch)};
  untraced_aps.push_back(untraced_apps_per_s("untraced batch 2"));
  {
    const DecoratedPipeline again(*fixture->pipeline);
    const Batch second = traced(*again.pipeline, config, !campaign);
    gated(second, "traced batch 2");
    traced_aps.push_back(apps_per_s(second));
  }
  untraced_aps.push_back(untraced_apps_per_s("untraced batch 3"));

  const auto& result = batch.result;
  const double apps = static_cast<double>(result.completed());
  const std::string in_child =
      "recorded inside pool children, whose telemetry is dropped";
  const std::string not_here =
      "layer not exercised by " + std::string(workload_name(o.workload));
  auto& m = report.metrics;
  const auto add = [&](std::string name, double value, std::string unit,
                       std::string note = {}) {
    m.push_back(Metric{std::move(name), value, std::move(unit), std::move(note), false});
  };
  const auto absent = [&](std::string name, std::string unit,
                          const std::string& why) {
    m.push_back(Metric{std::move(name), -1.0, std::move(unit), why, true});
  };
  const auto stage_row = [&](const char* name, std::string_view stage) {
    if (campaign) return absent(name, "ms", in_child);
    add(name, decorated.mean_ms(stage), "ms",
        "mean per call, " + std::to_string(decorated.calls(stage)) + " calls");
  };
  const auto phase_row = [&](const char* name, std::string_view key) {
    if (campaign) return absent(name, "ms", in_child);
    add(name, mean(spans.of(key)), "ms",
        "mean of " + std::to_string(spans.of(key).size()) + " spans");
  };

  // Set-up layers.
  add("appgen.generate_s", fixture->generate_s, "s",
      rescan ? "market and successor corpora" : "");
  add("malware.train_s", fixture->train_s, "s");
  if (rescan) {
    add("cache.prime_s", fixture->prime_s, "s");
  } else {
    absent("cache.prime_s", "s", not_here);
  }

  // Analysis layers.
  stage_row("core.static.ms", "static");
  phase_row("analysis.decompile.ms", "phase.static.decompile");
  phase_row("obfuscation.scan.ms", "phase.static.scan");
  stage_row("core.rewrite.ms", "rewrite");
  if (campaign) {
    absent("core.rewrite.apps", "count", in_child);
  } else {
    add("core.rewrite.apps", static_cast<double>(decorated.calls("rewrite")), "count");
  }
  stage_row("core.dynamic.ms", "dynamic");
  phase_row("os.boot.ms", "phase.dynamic.boot");
  phase_row("os.install.ms", "phase.dynamic.install");
  phase_row("monkey.fuzz.ms", "phase.dynamic.fuzz");
  stage_row("core.per_binary.ms", "per-binary");
  add("core.per_binary.binaries", static_cast<double>(result.dedup.total), "count",
      "intercepted binaries in the batch");
  add("core.per_binary.unique_ratio",
      result.dedup.total == 0 ? 0.0
                              : static_cast<double>(result.dedup.unique) /
                                    static_cast<double>(result.dedup.total),
      "ratio",
      std::to_string(result.dedup.unique) + " unique of " +
          std::to_string(result.dedup.total));
  const auto replay = replay_per_binary(*fixture, result);
  add("malware.scan.ms", mean(replay.scan_ms), "ms",
      "replay, mean of " + std::to_string(replay.scan_ms.size()) + " binaries");
  add("privacy.taint.ms", mean(replay.taint_ms), "ms",
      "replay, mean of " + std::to_string(replay.taint_ms.size()) + " dex binaries");
  stage_row("core.vuln.ms", "vuln");
  if (campaign) {
    absent("apk.parses_per_app", "count/app", in_child);
    absent("apk.bytes_copied_per_app", "B/app", in_child);
  } else {
    add("apk.parses_per_app", counter(snapshot, "pipeline.parses") / apps, "count/app");
    add("apk.bytes_copied_per_app", counter(snapshot, "pipeline.bytes_copied") / apps,
        "B/app");
  }

  // Driver: runner.
  if (campaign) {
    absent("runner.attempt.ms_p50", "ms", in_child);
    absent("runner.attempt.ms_p99", "ms", in_child);
  } else {
    const auto& attempts = spans.of("runner.attempt");
    const std::string n = std::to_string(attempts.size()) + " attempts";
    add("runner.attempt.ms_p50", quantile(attempts, 0.50), "ms", n);
    add("runner.attempt.ms_p99", quantile(attempts, 0.99), "ms", n);
  }
  const HistogramMs appends = histogram_ms(snapshot, "journal.append");
  double busy_ms = spans.sum("cache.lookup") + appends.sum;
  for (const auto& outcome : result.outcomes) {
    if (!outcome.cache_hit) busy_ms += outcome.wall_ms;
  }
  add("runner.idle_ratio",
      1.0 - busy_ms / (static_cast<double>(o.jobs) * batch.wall_ms), "ratio",
      "1 - busy / (workers x run wall)");

  // Driver: pool.
  if (campaign) {
    const HistogramMs rpcs = histogram_ms(snapshot, "sandbox.pool.rpc");
    add("pool.rpcs", counter(snapshot, "sandbox.pool.rpcs"), "count");
    add("pool.spawned", counter(snapshot, "sandbox.pool.spawned"), "count");
    add("pool.rpc.ms", rpcs.mean, "ms",
        "mean of " + std::to_string(rpcs.count) + " rpcs (us resolution)");
    add("pool.rpc.ms_p99", rpcs.p99, "ms", "interpolated in a power-of-two bucket");
    add("pool.overhead_ms_per_app", (rpcs.sum - market_attempt_ms) / apps, "ms",
        "(sum pool.rpc - sum thread-mode runner.attempt) / apps");
  } else {
    for (const char* name : {"pool.rpcs", "pool.spawned"}) absent(name, "count", not_here);
    for (const char* name : {"pool.rpc.ms", "pool.rpc.ms_p99", "pool.overhead_ms_per_app"}) {
      absent(name, "ms", not_here);
    }
  }

  // Driver: journal.
  if (campaign) {
    const double write_ms = histogram_ms(snapshot, "journal.append_write").mean;
    const double encode_ms = mean(replay_journal_encode(result));
    add("journal.append.ms", appends.mean, "ms",
        "encode + lock wait + write (us resolution)");
    add("journal.write.ms", write_ms, "ms", "us resolution");
    add("journal.lock_wait.ms", appends.mean - write_ms - encode_ms, "ms",
        "append - write - replayed encode");
    add("journal.bytes_per_app", counter(snapshot, "journal.append_bytes") / apps, "B/app");
  } else {
    for (const char* name : {"journal.append.ms", "journal.write.ms", "journal.lock_wait.ms"}) {
      absent(name, "ms", not_here);
    }
    absent("journal.bytes_per_app", "B/app", not_here);
  }

  // Driver: cache.
  if (rescan) {
    const auto& lookups = spans.of("cache.lookup");
    const double hits = counter(snapshot, "cache.hit");
    const double misses = counter(snapshot, "cache.miss");
    const auto inserts = replay_cache_inserts(o, *fixture, result);
    add("cache.lookup.ms", mean(lookups), "ms",
        "mean of " + std::to_string(lookups.size()) + " lookups (sha256 + lock + decode)");
    add("cache.lookup.ms_p99", quantile(lookups, 0.99), "ms");
    add("cache.hit_ratio", hits + misses == 0 ? 0.0 : hits / (hits + misses), "ratio");
    add("cache.insert.ms", mean(inserts), "ms",
        "replay, mean of " + std::to_string(inserts.size()) + " inserts");
    add("cache.store_mb", store_mb, "MB", "results.dyc after the batch");
  } else {
    for (const char* name : {"cache.lookup.ms", "cache.lookup.ms_p99"}) absent(name, "ms", not_here);
    absent("cache.hit_ratio", "ratio", not_here);
    absent("cache.insert.ms", "ms", not_here);
    absent("cache.store_mb", "MB", not_here);
  }

  // Support: tracing's own cost.
  add("trace.overhead_pct", 100.0 * (1.0 - median(traced_aps) / median(untraced_aps)),
      "%",
      std::string("median traced against median untraced apps_per_s, 2 and 3 "
                  "alternating batches") +
          (campaign ? " (metrics only in the pooled batches)" : ""));
  return report;
}

}  // namespace perfbench
