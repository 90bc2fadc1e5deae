// Parallel corpus driver: maps one shared, immutable DyDroid pipeline over
// an app corpus with a fixed-size worker pool, the way the paper pushed
// 58,739 Google-Play apps through the Figure-1 pipeline.
//
// Guarantees:
//   * Determinism — each app's fuzzing seed derives from its corpus index
//     (seed_for_app), never from a shared counter, so the per-app reports
//     are byte-identical regardless of worker count or scheduling.
//   * Ordering — outcomes come back in corpus order; every downstream
//     table printer iterates exactly as the serial loop did.
//   * Isolation — a stage failure (or stray exception) in one app becomes
//     that app's crash outcome; it never aborts the batch.
//   * Lock-free hot path — workers write to pre-sized outcome slots;
//     AggregateStats are reduced once, in corpus order, after the pool
//     joins (order-deterministic, including the floating-point sums).
//   * Crash safety (docs/CHECKPOINT.md) — with a journal configured, every
//     finished outcome is appended to a CRC-framed write-ahead log before
//     the run advances; a killed run resumes by replaying the journal and
//     re-running only the missing apps, reproducing the uninterrupted
//     run's reports byte-for-byte. With no journal configured the hot path
//     is untouched (a single pointer check per app).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "appgen/corpus.hpp"
#include "core/pipeline.hpp"
#include "driver/binary_dedup.hpp"

namespace dydroid::driver {

/// Default seed base: the historical bench corpus seed origin.
inline constexpr std::uint64_t kDefaultSeedBase = 0xBE9C0000ull;

/// Hard corpus-size ceiling. Global app indices are the identity that
/// threads through seeds, journal records, cache keys and the u32 trace
/// context (whose kTraceNoApp sentinel is 0xFFFFFFFF), so the largest legal
/// index is 0xFFFFFFFE. validate_runner_config rejects bigger corpora
/// loudly instead of letting the index silently truncate at the trace
/// boundary.
inline constexpr std::uint64_t kMaxCorpusApps = 0xFFFFFFFFull;

/// Seed for the app at `index`. Index-derived (not a shared counter), so an
/// app keeps its seed when the corpus is filtered, reordered or sharded.
[[nodiscard]] constexpr std::uint64_t seed_for_app(std::uint64_t base,
                                                   std::size_t index) {
  return base + static_cast<std::uint64_t>(index);
}

/// True when `base + index` would wrap for some index in [0, count): two
/// distinct apps would silently collide on one seed. Checked (loudly) by
/// validate_runner_config before any seed is derived.
[[nodiscard]] constexpr bool seed_range_overflows(std::uint64_t base,
                                                  std::uint64_t count) {
  return count > 0 &&
         base > std::numeric_limits<std::uint64_t>::max() - (count - 1);
}

/// Apps the shard `shard_index` of `shard_count` owns out of a corpus of
/// `corpus_size`: the global indices ≡ shard_index (mod shard_count).
/// Shard 0 of 1 is the whole corpus.
[[nodiscard]] constexpr std::uint64_t shard_app_count(
    std::uint64_t corpus_size, std::uint32_t shard_index,
    std::uint32_t shard_count) {
  if (shard_index >= corpus_size) return 0;
  return (corpus_size - shard_index + shard_count - 1) / shard_count;
}

/// How analysis attempts are contained (docs/ISOLATION.md).
enum class IsolationMode : std::uint8_t {
  /// Thread mode: attempts run on the worker thread. Fastest; a wild
  /// crash in one app takes the whole driver down.
  kOff = 0,
  /// Attempts run in a forked child per worker thread
  /// (support::PoolWorker), dispatched over a framed RPC pipe, a batch of
  /// first attempts per round trip: crashes, OOMs and hangs become
  /// classified outcomes of the app that caused them instead of driver
  /// outages. RunnerConfig::pool_recycle_apps bounds how many apps one
  /// child serves; 1 (what `--isolate` means) gives every attempt a fresh
  /// process.
  kPool = 1,
};

/// How the process sandbox disposed of an app's final attempt when
/// isolation is on (docs/ISOLATION.md). kNone for thread-mode
/// outcomes and for sandboxed apps whose worker responded cleanly —
/// including apps whose *analysis* crashed in the ordinary,
/// in-process-catchable way.
enum class SandboxFate : std::uint8_t {
  kNone = 0,
  /// The child died abnormally (fatal signal recorded in fatal_signal) or
  /// returned a reserved failure code: a wild write, an abort, a torn
  /// RPC response. The app keeps a synthesized crash report.
  kCrashed = 1,
  /// The child was killed for memory: its allocator failed under
  /// RLIMIT_AS (clean reserved-code exit) or the kernel OOM-killed it.
  kOomKilled = 2,
  /// The supervisor SIGKILLed the child past the sandbox wall deadline —
  /// the preemptive version of the max_app_wall_ms watchdog.
  kTimedOut = 3,
};

/// One unit of corpus work, as data: the APK and its scenario's payloads
/// are refcounted Blob views, so enqueueing never copies their bytes and a
/// job needs nothing else to outlive the run() call.
struct AppJob {
  support::Blob apk;
  /// The app's surroundings on the device (hosted payloads, companion
  /// apps). Part of the result cache's content key (docs/CACHE.md).
  os::Scenario scenario;
  /// Explicit seed override. When unset, the seed derives from the job's
  /// position (seed_for_app). Set this to the app's *original* corpus seed
  /// when running a filtered/reordered subset, so every app reproduces its
  /// full-run report byte-for-byte.
  std::optional<std::uint64_t> seed;
};

/// Per-app result with timing, in corpus order.
struct AppOutcome {
  core::AppReport report;
  std::uint64_t seed = 0;
  /// job_digest of the app's job, stamped when a journal or a cache is
  /// configured (zero otherwise). Journaled: a record names its inputs.
  support::Sha256Digest job;
  /// Total wall time spent on the app, summed across attempts. Recorded on
  /// every path — including crash outcomes and escaping exceptions.
  double wall_ms = 0.0;
  /// Analysis attempts consumed (2 when the retry policy re-ran the app).
  std::uint32_t attempts = 1;
  /// An attempt exceeded PipelineOptions::max_app_wall_ms.
  bool timed_out = false;
  /// The final attempt still crashed/timed out under retry_on_crash; the
  /// app is excluded from trust but keeps its Table II bucket.
  bool quarantined = false;
  /// The slot holds a real outcome (analyzed or replayed). False only in
  /// the partial results of an interrupted/aborted run. Not journaled.
  bool completed = false;
  /// The outcome was restored from a resume journal instead of analyzed
  /// by this process. Not journaled.
  bool replayed = false;
  /// How the sandbox disposed of the final attempt (kNone outside isolate
  /// mode and for clean child exits). Journaled: replay and live runs
  /// classify kills identically.
  SandboxFate sandbox_fate = SandboxFate::kNone;
  /// The signal that terminated the child when sandbox_fate is kCrashed /
  /// kOomKilled / kTimedOut and the child died to a signal (0 when it
  /// exited with a reserved failure code instead). Journaled.
  std::uint8_t fatal_signal = 0;
  /// The outcome was served by the content-addressed result cache
  /// (docs/CACHE.md) instead of analyzed by this process. Not journaled.
  bool cache_hit = false;
  /// The result cache was consulted for this app (hit or miss). False when
  /// no cache is configured and for journal-replayed outcomes, so
  /// cache_hits + cache_misses + replayed == apps always holds. Not
  /// journaled.
  bool cache_checked = false;
};

/// Corpus-level tallies, reduced once in corpus order after the workers
/// join.
struct AggregateStats {
  std::size_t apps = 0;
  // Table II outcome histogram.
  std::size_t not_run = 0;
  std::size_t rewriting_failure = 0;
  std::size_t no_activity = 0;
  std::size_t crashed = 0;
  std::size_t exercised = 0;
  std::size_t decompile_failed = 0;
  // Measurement aspects.
  std::size_t static_dcl = 0;        // apps whose code references DCL APIs
  std::size_t intercepted = 0;       // apps with ≥1 intercepted binary
  std::size_t remote_loaders = 0;    // apps loading network-fetched code
  std::size_t malware_carriers = 0;  // apps loading detected malware
  std::size_t vulnerable = 0;        // apps with ≥1 vulnerability finding
  std::size_t privacy_leaking = 0;   // apps whose loaded code leaks privacy
  std::size_t binaries = 0;          // total intercepted binaries
  std::size_t events = 0;            // total DCL events
  // Fault-handling policy (docs/FAULTS.md).
  std::size_t timed_out = 0;    // apps exceeding max_app_wall_ms
  std::size_t retried = 0;      // apps re-run by the retry policy
  std::size_t quarantined = 0;  // apps still failing after the retry
  // Process-isolation sandbox (docs/ISOLATION.md). Classified from the
  // final attempt's SandboxFate; sandboxed kills also land in the Table II
  // `crashed` bucket via their synthesized crash reports, so these split
  // the crash population by *mechanism* rather than adding to `apps`.
  std::size_t sandbox_crashed = 0;  // child signal deaths / reserved exits
  std::size_t killed_oom = 0;       // memory-limit and kernel-OOM kills
  std::size_t killed_timeout = 0;   // supervisor wall-deadline SIGKILLs
  // Result cache (docs/CACHE.md). Counted from cache-checked outcomes, so
  // cache_hits + cache_misses covers exactly the apps this process put
  // through the cache (journal-replayed apps never consult it).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  // Timing.
  double total_app_ms = 0.0;
  double max_app_ms = 0.0;

  /// Fold one finished app into the tallies.
  void absorb(const AppOutcome& outcome);
};

struct CorpusResult {
  std::vector<AppOutcome> outcomes;  // corpus order
  AggregateStats stats;
  double wall_ms = 0.0;     // whole-corpus wall time
  std::size_t threads = 0;  // worker count actually used
  // --- crash-safe run bookkeeping (docs/CHECKPOINT.md) ---------------------
  std::size_t analyzed = 0;  // outcomes produced by this process
  std::size_t replayed = 0;  // outcomes restored from the resume journal
  /// Apps this run was responsible for: the whole corpus unsharded, the
  /// shard's residue class under --shard I/N (docs/SHARDING.md). The
  /// outcomes vector always spans the full corpus; non-shard slots stay
  /// !completed.
  std::size_t shard_apps = 0;
  /// A graceful stop (RunnerConfig::stop) ended the run before every app
  /// completed; in-flight apps finished and were journaled.
  bool interrupted = false;
  // --- result cache bookkeeping (docs/CACHE.md) ----------------------------
  std::size_t cache_evictions = 0;      // entries dropped by capacity bounds
  std::size_t cache_invalidated = 0;    // stale-fingerprint entries at open
  std::size_t cache_write_failures = 0; // inserts dropped (fault / IO error)
  /// Corpus-wide unique-binary dedup table (the paper's apps-vs-unique-
  /// binaries measurement), reduced in corpus order after the pool joins.
  BinaryDedupStats dedup;

  [[nodiscard]] std::size_t completed() const { return analyzed + replayed; }
};

struct RunnerConfig {
  /// Worker count; 0 = DYDROID_JOBS env var, else hardware_concurrency.
  std::size_t jobs = 0;
  /// Base for the index-derived per-app seeds.
  std::uint64_t seed_base = kDefaultSeedBase;

  // --- corpus sharding (docs/SHARDING.md) ----------------------------------
  /// Split the corpus across shard_count independent runs: this run
  /// executes only global indices ≡ shard_index (mod shard_count), keeping
  /// global-index seeds, journal records, trace context and cache keys, so
  /// `dydroid merge` can fold the shard journals back into one journal
  /// whose replay is byte-identical to an unsharded run. 1 (the default)
  /// means unsharded; 0 is rejected. Every journaled run stamps its journal
  /// with a support::ShardMeta record (shard_index/shard_count, seed base,
  /// corpus size, codec version, config fingerprint) before any outcome.
  std::uint32_t shard_count = 1;
  /// This run's shard in [0, shard_count).
  std::uint32_t shard_index = 0;

  // --- crash-safe journaling (docs/CHECKPOINT.md) --------------------------
  /// Non-empty enables the write-ahead outcome journal: every finished app
  /// is appended (one CRC-framed record) before the run advances. Empty
  /// (the default) costs nothing on the hot path.
  std::string journal_path;
  /// Replay completed outcomes from `journal_path` before running: their
  /// apps are skipped, their stats re-merged, and new outcomes append to
  /// the same journal. The journal's metadata record must match this run
  /// (shard, seed base, corpus size, codec version, config fingerprint).
  /// Requires a non-empty journal_path.
  bool resume = false;
  /// fsync every outcome journal this run writes after every record
  /// (power-loss durability): the `journal_path` journal and the cache
  /// store, which is a journal too. Off by default; both are always
  /// fsync'd when sealed.
  bool journal_fsync = false;
  /// Graceful-shutdown flag (e.g. set by a SIGINT/SIGTERM handler): when
  /// it becomes true, workers finish their in-flight apps, the journal is
  /// sealed, and run() returns a partial result with interrupted=true.
  const std::atomic<bool>* stop = nullptr;

  // --- content-addressed result cache (docs/CACHE.md) ----------------------
  /// Non-empty enables the on-disk result cache: each app is looked up by
  /// (job_digest of its bytes and scenario, config fingerprint, seed)
  /// before analysis and inserted after, and unique intercepted binaries
  /// are persisted content-addressed under <cache_dir>/blobs. Empty (the
  /// default) costs one branch per app.
  std::string cache_dir;
  /// LRU capacity bounds for the cache; 0 = unlimited.
  std::size_t cache_max_entries = 0;
  std::uint64_t cache_max_bytes = 0;

  // --- process-isolation sandbox (docs/ISOLATION.md) -----------------------
  /// Containment for analysis attempts. kPool dispatches attempts to one
  /// forked worker per thread over a framed RPC pipe: clean responses
  /// decode to outcomes byte-identical to thread mode, while signal
  /// deaths, OOM kills and wall-deadline kills become classified,
  /// quarantined crash outcomes instead of taking the driver down. Off by
  /// default: thread mode is untouched.
  IsolationMode isolation_mode = IsolationMode::kOff;
  /// True when the sandbox is on.
  [[nodiscard]] bool isolated() const {
    return isolation_mode != IsolationMode::kOff;
  }
  /// Retire a worker after it has served this many apps (apps, not round
  /// trips: no batch carries a worker past it) and fork a fresh one (0 =
  /// never; 1 = a fresh process per app, what `--isolate` means). Resets
  /// accumulated heap growth; reports are unaffected — recycling happens
  /// between attempts.
  std::uint32_t pool_recycle_apps = 0;
  /// Child RLIMIT_AS in bytes (0 = inherit). Must comfortably exceed the
  /// parent's footprint — the limit covers the whole forked image. Ignored
  /// under ASan/TSan (support::address_space_limit_supported).
  std::uint64_t sandbox_mem_limit_bytes = 0;
  /// Wall budget per sandboxed attempt, after which the supervisor
  /// SIGKILLs the child. 0 derives a generous budget from the pipeline's
  /// max_app_wall_ms (so a hung stage is preempted, not just recorded) and
  /// means "no kill" when that is unset too.
  double sandbox_deadline_ms = 0.0;
};

/// Thrown by CorpusRunner::run when the run itself dies mid-corpus: a
/// journal append failed (including an injected FaultSite::kJournalAppend
/// torn write) or an injected FaultSite::kDriverKill fired at the checked
/// boundary after an append. The journal is sealed before throwing, so the
/// run is resumable with RunnerConfig::resume.
class RunAborted : public std::runtime_error {
 public:
  RunAborted(std::string message, std::size_t journaled)
      : std::runtime_error(std::move(message)), journaled_(journaled) {}
  /// Outcome records appended to the journal by this process before the
  /// abort (the metadata record is not counted).
  [[nodiscard]] std::size_t journaled() const { return journaled_; }

 private:
  std::size_t journaled_ = 0;
};

/// Resolve a requested worker count: explicit > DYDROID_JOBS > hardware.
[[nodiscard]] std::size_t resolve_jobs(std::size_t requested);

/// Validate a runner configuration against the corpus it is about to run.
/// Throws std::runtime_error (loudly, before any app runs) on: a corpus
/// larger than kMaxCorpusApps (the u32 trace-context identity would
/// truncate), a seed base whose index-derived seeds would wrap
/// (seed_range_overflows — two apps would collide on one seed), a shard
/// count of 0 or a shard index past it, or resume without a journal path.
/// Called by CorpusRunner::run; exposed so tests can probe the boundaries
/// without materializing a corpus.
void validate_runner_config(const RunnerConfig& config,
                            std::uint64_t corpus_size);

class CorpusRunner {
 public:
  /// The pipeline is shared by all workers; it must stay alive and
  /// unmodified for the duration of every run() call.
  explicit CorpusRunner(const core::DyDroid& pipeline, RunnerConfig config = {});

  /// Run every job; returns outcomes in job order.
  [[nodiscard]] CorpusResult run(std::span<const AppJob> jobs) const;
  /// Convenience: run a generated corpus (jobs built via jobs_from_corpus).
  [[nodiscard]] CorpusResult run(const appgen::Corpus& corpus) const;

  [[nodiscard]] const RunnerConfig& config() const { return config_; }

 private:
  const core::DyDroid* pipeline_;
  RunnerConfig config_;
};

/// Build one AppJob per generated app (bytes and scenario shared, not
/// copied).
[[nodiscard]] std::vector<AppJob> jobs_from_corpus(const appgen::Corpus& corpus);

}  // namespace dydroid::driver
