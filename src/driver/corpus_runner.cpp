#include "driver/corpus_runner.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

#include "driver/outcome_codec.hpp"
#include "driver/result_cache.hpp"
#include "driver/sandbox.hpp"
#include "driver/shard_merge.hpp"
#include "support/hash.hpp"
#include "support/io.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"
#include "support/worker_pool.hpp"

namespace dydroid::driver {

namespace {

/// Salt for the driver-level fault session (journal.append / driver.kill /
/// cache.read / cache.write sites): distinct from every per-app session
/// seed, deterministic in the runner's seed base.
constexpr std::uint64_t kDriverFaultSalt = 0xD21BE9u;

/// Salt for the per-attempt *sandbox* fault session (sandbox.crash /
/// sandbox.pool.*): supervisor-side decisions draw from a stream derived
/// from the app seed + attempt but distinct from the pipeline's in-child
/// per-app session, so arming sandbox sites never perturbs the analysis
/// itself.
constexpr std::uint64_t kSandboxFaultSalt = 0x5ABD0Cull;

/// When RunnerConfig::sandbox_deadline_ms is unset, the kill budget is a
/// generous multiple of the pipeline's per-attempt wall budget: plenty of
/// slack for fork + RPC overhead on a healthy app, still a hard bound on a
/// hung one.
constexpr double kSandboxDeadlineSlack = 10.0;
constexpr double kSandboxDeadlinePadMs = 1000.0;

/// A child SIGKILLed by neither our deadline supervisor is either the
/// kernel OOM killer or an unrelated external kill (a chaos harness, an
/// operator). The two are indistinguishable from the parent, so the
/// supervisor transparently re-dispatches the attempt a bounded number of
/// times: a genuine memory hog dies again immediately (and is then
/// classified killed_oom), while a randomly kill -9'd worker just re-runs —
/// which is what keeps tools/run_isolation_matrix.sh's summaries golden.
constexpr int kExternalKillRespawns = 2;

/// Exit code of a serve loop that met a request it cannot trust: a
/// desynchronized stream cannot be resynchronized.
constexpr int kServeProtocolExitCode = 3;

/// Narrow a global corpus index into the u32 trace-context field. The
/// corpus identity must never silently truncate (with sharding, the global
/// index IS the app's identity across processes); validate_runner_config
/// bounds every run below kMaxCorpusApps, so a trip here means an internal
/// slot-mapping bug — fail loudly rather than tag spans with a wrapped id.
std::uint32_t trace_app_id(std::size_t index) {
  if (index >= support::kTraceNoApp) {
    throw std::runtime_error(support::format(
        "runner: corpus index %zu overflows the u32 trace context", index));
  }
  return static_cast<std::uint32_t>(index);
}

/// The seed the app at `index` runs (and must have run) with.
std::uint64_t job_seed(std::span<const AppJob> jobs, std::uint64_t seed_base,
                       std::size_t index) {
  return jobs[index].seed.value_or(seed_for_app(seed_base, index));
}

/// Replace `report` with a crash report carrying `message`.
void set_crash(core::AppReport& report, std::string message) {
  report = core::AppReport{};
  report.status = core::DynamicStatus::kCrash;
  report.crash_message = std::move(message);
}

// ---- journal resume replay (docs/CHECKPOINT.md) ----------------------------

/// The lowest replayed index whose record names another job than this
/// run's, or jobs.size() when every one matches. The digests are split
/// into one contiguous range per thread; each range stops at its first
/// mismatch, and the lowest range's wins.
std::size_t first_foreign_job(std::span<const AppJob> jobs,
                              std::span<const AppOutcome> outcomes,
                              std::span<const char> done,
                              std::size_t threads) {
  const std::size_t n = jobs.size();
  threads = std::clamp<std::size_t>(threads, 1, std::max<std::size_t>(n, 1));
  const std::size_t chunk = (n + threads - 1) / threads;
  std::vector<std::size_t> found(threads, n);
  const auto scan = [&](std::size_t part) {
    const std::size_t end = std::min(n, (part + 1) * chunk);
    for (std::size_t index = part * chunk; index < end; ++index) {
      if (done[index] && outcomes[index].job != job_digest(jobs[index])) {
        found[part] = index;
        return;
      }
    }
  };
  if (threads == 1) {
    scan(0);
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t part = 0; part < threads; ++part) {
      pool.emplace_back(scan, part);
    }
  }
  return *std::min_element(found.begin(), found.end());
}

/// Restore the outcomes recorded in the resume journal into `outcomes` and
/// mark their slots in `done` (workers skip them). On top of
/// read_outcome_journal's checks, the journal's metadata must match this
/// run's and every record must carry its job's seed and digest — the
/// lowest disagreeing index fails loudly, never a silent re-run; the
/// digests are taken on the run's `threads` before any worker starts. A
/// torn tail is chopped off so this run's appends land after the last
/// intact frame. Returns false when the journal holds no intact record yet
/// (it is then stamped like a fresh one).
bool replay_journal(const RunnerConfig& config, const support::ShardMeta& meta,
                    std::span<const AppJob> jobs,
                    std::vector<AppOutcome>& outcomes,
                    std::vector<char>& done, std::size_t threads) {
  auto read = read_outcome_journal(
      config.journal_path, [&](std::size_t index, AppOutcome&& outcome) {
        if (index >= jobs.size()) return;  // refused by the metadata check
        outcomes[index] = std::move(outcome);
        done[index] = 1;
      });
  if (!read.ok()) {
    throw std::runtime_error("runner: resume failed: " + read.error());
  }
  const OutcomeRecords& journal = read.value();
  if (journal.meta.has_value()) {
    if (const std::string mismatch =
            describe_shard_meta_mismatch(*journal.meta, meta);
        !mismatch.empty()) {
      throw std::runtime_error(
          "runner: resume failed: journal does not match this run: " +
          mismatch);
    }
  }
  // The seed check is cheap and serial; at one index it is reported ahead
  // of the job check.
  const std::size_t foreign =
      first_foreign_job(jobs, outcomes, done, threads);
  for (std::size_t index = 0; index < std::min(foreign + 1, jobs.size());
       ++index) {
    if (!done[index]) continue;
    const std::uint64_t seed = job_seed(jobs, config.seed_base, index);
    if (outcomes[index].seed != seed) {
      throw std::runtime_error(support::format(
          "runner: resume failed: app %zu was journaled with seed %llu but "
          "this run derives seed %llu (different seed base or corpus?)",
          index, static_cast<unsigned long long>(outcomes[index].seed),
          static_cast<unsigned long long>(seed)));
    }
  }
  if (foreign < jobs.size()) {
    throw std::runtime_error(support::format(
        "runner: resume failed: app %zu was journaled for job %s... but "
        "this run's job is %s... (a different APK or scenario?)",
        foreign, outcomes[foreign].job.hex().substr(0, 16).c_str(),
        job_digest(jobs[foreign]).hex().substr(0, 16).c_str()));
  }
  if (journal.bytes_discarded > 0) {
    support::log_warn(
        "driver",
        support::format("journal %s: recovered %zu outcome(s), dropped %zu "
                        "torn/corrupt tail byte(s)",
                        config.journal_path.c_str(), journal.records.size(),
                        journal.bytes_discarded));
    // Chop the damaged tail off before reopening for append, so the
    // records this run writes land after the last *intact* frame (an
    // O_APPEND writer would otherwise bury them behind the garbage,
    // unreachable to the next reader).
    const support::Status truncated = support::truncate_journal(
        config.journal_path, journal.bytes_recovered);
    if (!truncated.ok()) {
      throw std::runtime_error("runner: resume failed: " + truncated.error());
    }
  }
  return journal.meta.has_value();
}

// ---- journal and cache opening ---------------------------------------------

/// Open the write-ahead journal (truncating unless resuming). A fresh (or
/// still-empty) journal is stamped with the run's metadata record before
/// any outcome, so every journal is self-describing to `dydroid merge` and
/// to later resumes. No fault scope is installed here: stamping is run
/// setup, not a journaled outcome, and must not consume injected-fault
/// budget.
support::JournalWriter open_journal(const RunnerConfig& config,
                                    const support::ShardMeta& meta,
                                    bool has_meta) {
  support::JournalWriterOptions options;
  options.fsync_each_record = config.journal_fsync;
  options.truncate = !config.resume;
  auto writer = support::JournalWriter::open(config.journal_path, options);
  if (!writer.ok()) throw std::runtime_error("runner: " + writer.error());
  support::JournalWriter journal = std::move(writer).take();
  if (!has_meta) {
    const support::Status stamped =
        journal.append(support::encode_shard_meta(meta));
    if (!stamped.ok()) {
      throw std::runtime_error("runner: cannot stamp journal metadata: " +
                               stamped.error());
    }
  }
  return journal;
}

ResultCache open_cache(const RunnerConfig& config,
                       const support::Sha256Digest& config_fp) {
  CacheConfig cache_config;
  cache_config.max_entries = config.cache_max_entries;
  cache_config.max_bytes = config.cache_max_bytes;
  cache_config.fsync_each_insert = config.cache_fsync;
  // Serial set-up before any worker starts: reading and indexing the store.
  const support::Span open_span("cache", "open");
  auto opened = ResultCache::open(config.cache_dir, config_fp, cache_config);
  if (!opened.ok()) throw std::runtime_error("runner: " + opened.error());
  return std::move(opened).take();
}

/// The driver-level fault session (journal.append / driver.kill /
/// cache.read / cache.write), armed from the pipeline's plan when a journal
/// or cache is configured, and the mutex that serializes it together with
/// the journal appends. Per-app sites keep their per-app sessions.
struct DriverFaults {
  std::optional<support::FaultSession> session;
  std::mutex mutex;
};

/// Install the driver fault session for the duration of a cache call,
/// serializing its hit counters under the journal mutex. A no-op (and no
/// lock) when injection is off.
struct DriverFaultGuard {
  std::optional<std::unique_lock<std::mutex>> lock;
  std::optional<support::FaultScope> scope;
  explicit DriverFaultGuard(DriverFaults& faults) {
    if (faults.session.has_value()) {
      lock.emplace(faults.mutex);
      scope.emplace(&*faults.session);
    }
  }
};

// ---- the attempt executor (docs/ISOLATION.md) ------------------------------

/// Most apps one pooled round trip carries, chosen on perfbench `campaign`
/// (EXPERIMENTS.md: caps of 1, 8, 16 and 32 gave 44–48k, 60–67k, 60–61k
/// and 70–72k apps/s). A larger cap only lengthens what a failed batch
/// re-runs, and a batch of 32 apps stays far inside one app's deadline.
constexpr std::size_t kPoolBatchCap = 32;

/// Accumulates an attempt's elapsed time into the outcome's wall_ms on
/// every exit path — normal return, a synthesized fate, or an exception
/// escaping the attempt machinery — exactly once.
class AttemptWall {
 public:
  explicit AttemptWall(double& into) : into_(into) {}
  AttemptWall(const AttemptWall&) = delete;
  AttemptWall& operator=(const AttemptWall&) = delete;
  ~AttemptWall() { into_ += clock_.elapsed_ms(); }
  [[nodiscard]] double elapsed_ms() const { return clock_.elapsed_ms(); }

 private:
  support::Stopwatch clock_;
  double& into_;
};

/// How the sandbox disposed of an attempt whose round trip did not come
/// back clean.
struct Fate {
  SandboxFate fate = SandboxFate::kCrashed;
  int signal = 0;
  std::string message;
};

/// A SIGKILL the supervisor did not send: the kernel OOM killer or an
/// external kill, indistinguishable from here (see kExternalKillRespawns).
bool external_kill(const support::PoolRpcResult& rpc) {
  return rpc.status == support::PoolRpcResult::Status::kWorkerExit &&
         !rpc.exited && rpc.term_signal == SIGKILL;
}

/// The one classification ladder: a failed round trip's raw facts to
/// (fate, signal, crash message). Deadline kills are timeouts; the
/// reserved allocation-failure exit and unexplained SIGKILLs are OOM
/// kills; every other signal, exit code or protocol failure is a crash.
Fate classify_rpc(const support::PoolRpcResult& rpc, double deadline_ms) {
  using Status = support::PoolRpcResult::Status;
  if (rpc.status == Status::kTimeout) {
    return {SandboxFate::kTimedOut, SIGKILL,
            support::format(
                "sandbox: killed after exceeding the %.0f ms wall deadline",
                deadline_ms)};
  }
  if (rpc.status == Status::kWorkerExit) {
    if (rpc.exited && rpc.exit_code == support::kOomExitCode) {
      return {SandboxFate::kOomKilled, 0,
              "sandbox: allocation failed under the memory limit"};
    }
    if (external_kill(rpc)) {
      return {SandboxFate::kOomKilled, SIGKILL,
              "sandbox: child SIGKILLed repeatedly (kernel out-of-memory "
              "kill)"};
    }
    if (!rpc.exited && rpc.term_signal != 0) {
      return {SandboxFate::kCrashed, rpc.term_signal,
              support::format("sandbox: child died on signal %d",
                              rpc.term_signal)};
    }
    if (rpc.exited && rpc.exit_code != 0) {
      return {SandboxFate::kCrashed, 0,
              support::format("sandbox: child exited with code %d",
                              rpc.exit_code)};
    }
  }
  return {SandboxFate::kCrashed, 0,
          rpc.error.empty()
              ? "sandbox: worker exited before shipping a response"
              : rpc.error};
}

/// Settle an attempt the sandbox disposed of: synthesized crash report,
/// classified fate, fatal signal recorded. Always "failed".
bool settle_fate(AppOutcome& outcome, Fate fate) {
  set_crash(outcome.report, std::move(fate.message));
  outcome.sandbox_fate = fate.fate;
  outcome.fatal_signal = static_cast<std::uint8_t>(fate.signal);
  if (fate.fate == SandboxFate::kTimedOut) outcome.timed_out = true;
  support::count(fate.fate == SandboxFate::kCrashed ? "sandbox.crashed"
                                                    : "sandbox.killed");
  return true;
}

/// One app of a claimed run, as the cache tier and the executor see it.
struct BatchApp {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  AppOutcome* outcome = nullptr;
};

/// Runs analysis attempts and the per-app retry policy. Thread mode runs
/// an attempt inline on the driver thread; pool mode ships attempts to the
/// thread's forked worker, whose serve loop runs the very same inline path
/// — same seeds, same per-app fault session, same crash-conversion belt,
/// which is what keeps clean pooled outcomes byte-identical to thread
/// mode. In pool mode a round trip carries a batch of first attempts
/// (analyze_batch); the batch of one is the single-app path every fate is
/// classified on, by classify_rpc. Worker ownership is strictly 1:1 — each
/// driver thread only ever touches its own slot, so no locks.
class AttemptExecutor {
 public:
  AttemptExecutor(const core::DyDroid& pipeline, const RunnerConfig& config,
                  std::span<const AppJob> jobs, std::size_t threads)
      : pipeline_(pipeline),
        options_(pipeline.options()),
        config_(config),
        jobs_(jobs),
        slots_(config.isolated() ? threads : 0) {
    limits_.max_memory_bytes = config.sandbox_mem_limit_bytes;
    limits_.wall_deadline_ms =
        config.sandbox_deadline_ms > 0.0
            ? config.sandbox_deadline_ms
            : (options_.max_app_wall_ms > 0.0
                   ? options_.max_app_wall_ms * kSandboxDeadlineSlack +
                         kSandboxDeadlinePadMs
                   : 0.0);
  }

  /// Full per-app policy: timeout + single-retry-then-quarantine
  /// (docs/FAULTS.md), wrapped in the escaping-exception belt.
  void analyze_app(AppOutcome& outcome, std::uint64_t seed, std::size_t index,
                   std::size_t worker) {
    outcome.seed = seed;
    settle_app(outcome, index, worker, [&] {
      return run_attempt(outcome, 0, index, worker, !slots_.empty());
    });
  }

  /// Apps the next round trip of pooled `worker` may carry: the batch cap,
  /// and never past what its worker's recycling budget has left (so a
  /// budget of 1 keeps one app per process).
  [[nodiscard]] std::size_t batch_room(std::size_t worker) const {
    if (config_.pool_recycle_apps == 0) return kPoolBatchCap;
    const PoolSlot& slot = slots_[worker];
    const std::uint64_t served = slot.worker.has_value() ? slot.apps : 0;
    return static_cast<std::size_t>(std::min<std::uint64_t>(
        kPoolBatchCap, config_.pool_recycle_apps - served));
  }

  /// Analyze the apps of a claimed run on pooled `worker`. Their first
  /// attempts share one round trip, except for an app whose own
  /// sandbox.crash, sandbox.pool.recycle or sandbox.pool.spawn draw fires:
  /// it runs alone. A batch is all or nothing: a round trip that does not
  /// come back clean (worker death, deadline, desync, torn, undecodable or
  /// misaddressed response) leaves every outcome untouched, and each of
  /// its apps re-runs alone, so every fate, re-dispatch and deadline
  /// message stays with the app that caused it. Retries run alone after
  /// the batch. Returns false when the batch was split.
  bool analyze_batch(std::span<const BatchApp> apps, std::size_t worker) {
    std::vector<char> alone(apps.size(), 0);
    std::vector<std::size_t> batch;
    batch.reserve(apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
      apps[i].outcome->seed = apps[i].seed;
      alone[i] = runs_alone(apps[i].seed);
      if (!alone[i]) batch.push_back(i);
    }
    std::vector<char> failed(apps.size(), 0);
    bool split = false;
    if (batch.size() >= 2) {
      try {
        split = !run_batch(apps, batch, failed, worker);
      } catch (...) {
        // The escaping-exception belt, batch-sized: split, and let each
        // app's own attempts settle it.
        slots_[worker].worker.reset();
        split = true;
      }
    }
    if (batch.size() < 2 || split) {
      for (const std::size_t i : batch) {
        apps[i].outcome->wall_ms = 0.0;
        apps[i].outcome->timed_out = false;
        alone[i] = 1;
      }
    }
    for (std::size_t i = 0; i < apps.size(); ++i) {
      const BatchApp& app = apps[i];
      if (alone[i]) {
        analyze_app(*app.outcome, app.seed, app.index, worker);
      } else {
        settle_app(*app.outcome, app.index, worker,
                   [&] { return failed[i] != 0; });
      }
    }
    return !split;
  }

  /// Retire `worker`'s pooled child gracefully (EOF-driven exit).
  void retire(std::size_t worker) {
    if (worker < slots_.size() && slots_[worker].worker.has_value()) {
      slots_[worker].worker->shutdown();
      slots_[worker].worker.reset();
    }
  }

 private:
  /// One driver thread's pooled worker and the apps it has served, which
  /// the recycling budget counts (a round trip may carry several).
  struct PoolSlot {
    std::optional<support::PoolWorker> worker;
    std::uint64_t apps = 0;
  };

  /// The policy around an app's first attempt (`first` runs or has run it
  /// and says whether it failed): the retry, quarantine and the escaping-
  /// exception belt — an exception leaking out of the attempt machinery
  /// itself still resolves into a consistent outcome (attempts ≥ 1, wall
  /// time accumulated by the attempt's AttemptWall, timed_out derived by
  /// the same budget rule) instead of terminating the driver.
  template <typename First>
  void settle_app(AppOutcome& outcome, std::size_t index, std::size_t worker,
                  const First& first) {
    const auto escaped = [&](std::string message) {
      set_crash(outcome.report, std::move(message));
      if (outcome.attempts == 0) outcome.attempts = 1;
      // The budget check runs over the accumulated total — conservative,
      // since the per-attempt split is unknowable here.
      if (options_.max_app_wall_ms > 0.0 &&
          outcome.wall_ms > options_.max_app_wall_ms) {
        outcome.timed_out = true;
      }
    };
    try {
      bool failed = first();
      if (failed && options_.retry_on_crash) {
        // The retry's fault session is salted by the attempt, so transient
        // injected faults clear deterministically; if the retry fails too,
        // the app is quarantined — its final report keeps its Table II
        // bucket.
        support::count("runner.retry");
        failed = run_attempt(outcome, 1, index, worker, !slots_.empty());
        outcome.quarantined = failed;
      }
    } catch (const std::exception& e) {
      escaped(std::string("runner: escaped attempt machinery: ") + e.what());
    } catch (...) {
      escaped("runner: escaped attempt machinery");
    }
    // A sandbox fate surviving to the final attempt always quarantines: an
    // app the OS had to kill is excluded from trust even when
    // retry_on_crash is off (docs/ISOLATION.md).
    if (outcome.sandbox_fate != SandboxFate::kNone) outcome.quarantined = true;
    outcome.completed = true;
    support::count("runner.apps");
    if (outcome.timed_out) support::count("runner.timed_out");
    if (outcome.quarantined) support::count("runner.quarantined");
    support::observe_us("runner.app_wall",
                        static_cast<std::uint64_t>(outcome.wall_ms * 1000.0));
  }

  /// One attempt, recording the attempt count, trace context and wall time
  /// on every path. Returns the "failed" predicate the retry policy uses.
  bool run_attempt(AppOutcome& outcome, std::uint32_t attempt,
                   std::size_t index, std::size_t worker, bool pooled) {
    // Record the attempt as it *starts*: a journaled outcome must never
    // claim an attempt that did not run (live stats and journal replay
    // count `retried` from this field). The fate reflects the *final*
    // attempt: a kill on attempt 0 that clears on the retry leaves the app
    // clean, like any transient crash.
    outcome.attempts = attempt + 1;
    outcome.sandbox_fate = SandboxFate::kNone;
    outcome.fatal_signal = 0;
    // Nested ambient context: every span opened under this attempt is
    // tagged (app index, attempt, worker) without any plumbing.
    const support::TraceContextScope trace_context(
        trace_app_id(index), attempt, static_cast<std::uint32_t>(worker));
    const AttemptWall wall(outcome.wall_ms);
    return pooled ? run_pooled(outcome, attempt, index, worker)
                  : run_inline(jobs_[index], outcome, attempt, wall);
  }

  /// Analyze in this process. The pipeline already converts stage failures
  /// into crash outcomes; the catch blocks are the last-resort belt for
  /// anything else (bad_alloc, internal logic errors).
  bool run_inline(const AppJob& job, AppOutcome& outcome,
                  std::uint32_t attempt, const AttemptWall& wall) {
    core::AnalysisRequest request;
    request.apk = job.apk;
    request.seed = outcome.seed;
    request.attempt = attempt;
    request.scenario_setup = &job.scenario;
    {
      const support::Span attempt_span("runner", "attempt");
      try {
        outcome.report = pipeline_.analyze(request);
      } catch (const std::exception& e) {
        set_crash(outcome.report, std::string("runner: ") + e.what());
      } catch (...) {
        set_crash(outcome.report, "runner: unknown exception");
      }
    }
    const bool over_budget = options_.max_app_wall_ms > 0.0 &&
                             wall.elapsed_ms() > options_.max_app_wall_ms;
    if (over_budget) outcome.timed_out = true;
    return over_budget ||
           outcome.report.status == core::DynamicStatus::kCrash;
  }

  /// The supervisor-side sandbox fault session of one attempt
  /// (sandbox.crash / sandbox.pool.*), or none when injection is off.
  [[nodiscard]] std::optional<support::FaultSession> sandbox_session(
      std::uint64_t seed, std::uint32_t attempt) const {
    if (options_.faults == nullptr || options_.faults->empty()) {
      return std::nullopt;
    }
    return std::optional<support::FaultSession>(
        std::in_place, *options_.faults,
        support::fault_session_seed(seed ^ kSandboxFaultSalt, attempt));
  }

  /// True when an app's first attempt must run alone: one of the draws
  /// run_pooled makes before dispatch (sandbox.crash, sandbox.pool.recycle,
  /// sandbox.pool.spawn) fires in its session. A decision depends only on
  /// the session seed, the site and its hit count, so run_pooled, drawing
  /// again from a fresh session, meets the same ones.
  [[nodiscard]] bool runs_alone(std::uint64_t seed) const {
    std::optional<support::FaultSession> session = sandbox_session(seed, 0);
    return session.has_value() &&
           (session->should_fire(support::FaultSite::kSandboxCrash) ||
            session->should_fire(support::FaultSite::kPoolRecycle) ||
            session->should_fire(support::FaultSite::kPoolSpawn));
  }

  /// Fork `slot`'s worker.
  support::Status spawn(PoolSlot& slot) {
    const support::Span spawn_span("sandbox", "pool.spawn");
    auto spawned = support::PoolWorker::spawn(
        [this](int request_fd, int response_fd) {
          return serve(request_fd, response_fd);
        },
        limits_);
    if (!spawned.ok()) return support::Status::failure(spawned.error());
    slot.worker.emplace(std::move(spawned).take());
    slot.apps = 0;
    support::count("sandbox.pool.spawned");
    return {};
  }

  /// One round trip, counted and spanned as such, to `slot`'s live worker.
  support::PoolRpcResult call(PoolSlot& slot, const support::Bytes& request) {
    const support::Span rpc_span("sandbox", "pool.rpc");
    support::count("sandbox.pool.rpcs");
    return slot.worker->call(request, kPoolRpcMagic, limits_.wall_deadline_ms);
  }

  /// Ship the attempt to this thread's worker, spawning one if needed, and
  /// settle whatever comes back. Recycling (injected, or after K apps)
  /// happens strictly *between* attempts, so it can never change an
  /// outcome: a worker told to retire ships its response, then exits.
  bool run_pooled(AppOutcome& outcome, std::uint32_t attempt,
                  std::size_t index, std::size_t worker) {
    std::optional<support::FaultSession> faults =
        sandbox_session(outcome.seed, attempt);
    std::optional<support::FaultScope> scope;
    if (faults.has_value()) scope.emplace(&*faults);
    PoolRequest request;
    request.app_index = index;
    request.attempt = attempt;
    request.seed = outcome.seed;
    request.worker = static_cast<std::uint32_t>(worker);
    // Drawn here so the decision is deterministic in the supervisor's
    // stream; *executed* in the child as a real abort, so the injected
    // crash exercises genuine signal-death classification end to end.
    request.crash_child =
        support::fault_fire(support::FaultSite::kSandboxCrash);
    const bool recycle_fault =
        support::fault_fire(support::FaultSite::kPoolRecycle);

    PoolSlot& slot = slots_[worker];
    for (int respawn = 0;; ++respawn) {
      // The spawn fault is drawn *unconditionally* — "would the spawn this
      // attempt might need fail?" — never gated on whether this thread's
      // worker happens to be alive. Gating it on pool state would make the
      // hit stream (and therefore which apps fail under p: mode) depend on
      // the worker count, breaking byte-identical reports at any -j.
      if (support::fault_fire(support::FaultSite::kPoolSpawn)) {
        slot.worker.reset();
        return settle_fate(outcome, {SandboxFate::kCrashed, 0,
                                     "sandbox: spawn failed: " +
                                         support::fault_message(
                                             support::FaultSite::kPoolSpawn)});
      }
      if (!slot.worker.has_value()) {
        const support::Status spawned = spawn(slot);
        if (!spawned.ok()) {
          return settle_fate(outcome, {SandboxFate::kCrashed, 0,
                                       "sandbox: spawn failed: " +
                                           spawned.error()});
        }
      }

      request.retire =
          recycle_fault || (config_.pool_recycle_apps > 0 &&
                            slot.apps + 1 >= config_.pool_recycle_apps);
      const support::PoolRpcResult rpc =
          call(slot, encode_pool_request(request));
      if (rpc.status != support::PoolRpcResult::Status::kOk) {
        slot.worker.reset();  // already dead and reaped
        if (external_kill(rpc) && respawn < kExternalKillRespawns) {
          // Re-dispatch the in-flight app to a fresh worker.
          support::count("sandbox.respawned");
          continue;
        }
        return settle_fate(outcome,
                           classify_rpc(rpc, limits_.wall_deadline_ms));
      }
      ++slot.apps;

      // Clean response: decode it, honoring the torn-RPC injection site.
      auto decoded =
          support::fault_fire(support::FaultSite::kPoolRpc)
              ? support::Result<DecodedOutcome>::failure(
                    support::fault_message(support::FaultSite::kPoolRpc))
              : decode_pool_response(rpc.message);
      if (decoded.ok() && (decoded.value().index != index ||
                           decoded.value().outcome.seed != outcome.seed)) {
        decoded = support::Result<DecodedOutcome>::failure(
            "sandbox: result frame for the wrong app");
      }
      if (!decoded.ok()) {
        // A response that framed but does not decode means the stream can
        // no longer be trusted: retire the worker along with the outcome.
        slot.worker.reset();
        return settle_fate(outcome,
                           {SandboxFate::kCrashed, 0, decoded.error()});
      }
      AppOutcome& shipped = decoded.value().outcome;
      outcome.report = std::move(shipped.report);
      if (shipped.timed_out) outcome.timed_out = true;

      if (request.retire) {
        slot.worker->shutdown();
        slot.worker.reset();
        support::count("sandbox.pool.recycled");
      }
      return shipped.timed_out ||
             outcome.report.status == core::DynamicStatus::kCrash;
    }
  }

  /// One round trip carrying the first attempts of `apps[i]` for each i in
  /// `batch` (at least two). On a clean response every one of them is
  /// settled as run_pooled settles a single app — the worker's report and
  /// timed_out, its own sandbox.pool.rpc draw, `failed` for the retry
  /// policy — and its wall_ms is the worker's attempt wall plus an equal
  /// share of the round trip's overhead, so the batch's walls sum to what
  /// the supervisor waited. Anything else (a spawn failure, a dead or
  /// deadline-killed worker, a desync, a torn, undecodable or misaddressed
  /// response) settles nothing, retires the worker and returns false.
  bool run_batch(std::span<const BatchApp> apps,
                 std::span<const std::size_t> batch, std::span<char> failed,
                 std::size_t worker) {
    const support::Stopwatch clock;
    const support::TraceContextScope trace_context(
        trace_app_id(apps[batch.front()].index), 0,
        static_cast<std::uint32_t>(worker));
    PoolSlot& slot = slots_[worker];
    const auto split = [&] {
      slot.worker.reset();
      support::count("sandbox.pool.split");
      return false;
    };
    if (!slot.worker.has_value() && !spawn(slot).ok()) return split();

    std::vector<PoolRequest> requests(batch.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      requests[k].app_index = apps[batch[k]].index;
      requests[k].seed = apps[batch[k]].seed;
      requests[k].worker = static_cast<std::uint32_t>(worker);
    }
    const bool retire = config_.pool_recycle_apps > 0 &&
                        slot.apps + batch.size() >= config_.pool_recycle_apps;
    requests.back().retire = retire;
    const support::PoolRpcResult rpc =
        call(slot, encode_pool_request(requests));
    if (rpc.status != support::PoolRpcResult::Status::kOk) return split();
    auto decoded = decode_pool_responses(rpc.message);
    if (!decoded.ok() || decoded.value().size() != batch.size()) {
      return split();
    }
    std::vector<DecodedOutcome>& shipped = decoded.value();
    double worker_ms = 0.0;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      if (shipped[k].index != requests[k].app_index ||
          shipped[k].outcome.seed != requests[k].seed) {
        return split();
      }
      worker_ms += shipped[k].outcome.wall_ms;
    }
    slot.apps += batch.size();
    if (retire) {
      slot.worker->shutdown();
      slot.worker.reset();
      support::count("sandbox.pool.recycled");
    }

    const double share = std::max(0.0, clock.elapsed_ms() - worker_ms) /
                         static_cast<double>(batch.size());
    bool torn = false;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const std::size_t i = batch[k];
      AppOutcome& outcome = *apps[i].outcome;
      AppOutcome& result = shipped[k].outcome;
      outcome.attempts = 1;
      outcome.sandbox_fate = SandboxFate::kNone;
      outcome.fatal_signal = 0;
      outcome.wall_ms += result.wall_ms + share;
      // The app's own sandbox.pool.rpc draw, as run_pooled would make it
      // (see runs_alone).
      std::optional<support::FaultSession> faults =
          sandbox_session(apps[i].seed, 0);
      std::optional<support::FaultScope> scope;
      if (faults.has_value()) scope.emplace(&*faults);
      if (support::fault_fire(support::FaultSite::kPoolRpc)) {
        torn = true;
        failed[i] = settle_fate(
            outcome, {SandboxFate::kCrashed, 0,
                      support::fault_message(support::FaultSite::kPoolRpc)});
        continue;
      }
      outcome.report = std::move(result.report);
      if (result.timed_out) outcome.timed_out = true;
      failed[i] = result.timed_out ||
                  outcome.report.status == core::DynamicStatus::kCrash;
    }
    // As for a single app: a response that cannot be trusted retires the
    // worker.
    if (torn) slot.worker.reset();
    return true;
  }

  /// Child-side serve loop (runs in the forked worker): one framed request
  /// per iteration, its dispatches run back to back through the inline
  /// attempt path and their outcomes shipped in one framed response. EOF
  /// on the request pipe is the graceful-shutdown signal; any protocol
  /// damage exits loudly.
  int serve(int request_fd, int response_fd) {
    support::Bytes message;
    PoolResponseEncoder response;
    for (;;) {
      const support::FrameRead read =
          support::read_pool_message(request_fd, kPoolRpcMagic, message);
      if (read == support::FrameRead::kEof) return 0;
      if (read != support::FrameRead::kMessage) return kServeProtocolExitCode;
      const auto batch = decode_pool_requests(message);
      if (!batch.ok() ||
          std::any_of(batch.value().begin(), batch.value().end(),
                      [&](const PoolRequest& request) {
                        return request.app_index >= jobs_.size();
                      })) {
        return kServeProtocolExitCode;
      }
      bool retire = false;
      for (const PoolRequest& request : batch.value()) {
        // The injected sandbox.crash decision, drawn by the supervisor.
        if (request.crash_child) std::abort();
        AppOutcome outcome;
        outcome.seed = request.seed;
        (void)run_attempt(outcome, request.attempt, request.app_index,
                          request.worker, /*pooled=*/false);
        response.add(request.app_index, outcome);
        retire = retire || request.retire;
      }
      const support::Bytes shipped = response.finish();
      if (!support::write_fully(response_fd, shipped.data(), shipped.size())) {
        return kServeProtocolExitCode;
      }
      // Exiting now, not on the EOF the supervisor's shutdown would send,
      // saves a recycled worker one wakeup round trip.
      if (retire) return 0;
    }
  }

  const core::DyDroid& pipeline_;
  const core::PipelineOptions& options_;
  const RunnerConfig& config_;
  std::span<const AppJob> jobs_;
  support::WorkerLimits limits_;
  std::vector<PoolSlot> slots_;
};

// ---- the cache tier (docs/CACHE.md) ----------------------------------------

/// Content-addressed lookup in front of the analysis: a hit replays the
/// stored outcome, a miss analyzes and inserts. Cache faults degrade — a
/// read fault is a miss, a write fault drops the entry — so cached and
/// uncached runs produce byte-identical reports. Without a cache it is a
/// single branch in front of the analysis.
class CacheTier {
 public:
  CacheTier(std::optional<ResultCache> cache,
            const support::Sha256Digest& config_fp, DriverFaults& faults)
      : cache_(std::move(cache)), config_fp_(config_fp), faults_(faults) {}

  [[nodiscard]] bool active() const { return cache_.has_value(); }

  template <typename Analyze>
  void process(const AppJob& job, std::uint64_t seed, AppOutcome& outcome,
               const Analyze& analyze) {
    if (!cache_.has_value()) {
      analyze();
      return;
    }
    const std::optional<CacheKey> miss = lookup(job, seed, outcome);
    if (!miss.has_value()) return;
    analyze();
    insert(*miss, outcome);
  }

  /// The tier over a claimed run (pool mode): every app is looked up, the
  /// misses go to `analyze` as one batch, and their outcomes are inserted.
  /// Returns what `analyze` returned (true when nothing missed).
  template <typename AnalyzeBatch>
  bool process_run(std::span<const AppJob> jobs, std::span<const BatchApp> run,
                   std::size_t worker, const AnalyzeBatch& analyze) {
    if (!cache_.has_value()) return run.empty() || analyze(run);
    std::vector<BatchApp> misses;
    std::vector<CacheKey> keys;
    for (const BatchApp& app : run) {
      const support::TraceContextScope trace_context(
          trace_app_id(app.index), 0, static_cast<std::uint32_t>(worker));
      std::optional<CacheKey> miss =
          lookup(jobs[app.index], app.seed, *app.outcome);
      if (!miss.has_value()) continue;
      misses.push_back(app);
      keys.push_back(*miss);
    }
    const bool clean = misses.empty() || analyze(std::span(misses));
    for (std::size_t k = 0; k < misses.size(); ++k) {
      const support::TraceContextScope trace_context(
          trace_app_id(misses[k].index), 0,
          static_cast<std::uint32_t>(worker));
      insert(keys[k], *misses[k].outcome);
    }
    return clean;
  }

  /// Record the cache's bookkeeping in `result` and seal the store.
  void seal(CorpusResult& result) {
    if (!cache_.has_value()) return;
    // Serial tear-down: compaction when dirty, and the store's fsync.
    const support::Span seal_span("cache", "seal");
    const CacheStats stats = cache_->stats();
    result.cache_evictions = stats.evictions;
    result.cache_invalidated = stats.invalidated;
    result.cache_write_failures = stats.write_failures;
    const support::Status sealed = cache_->seal();
    if (!sealed.ok()) support::log_warn("driver", sealed.error());
    cache_.reset();
  }

 private:
  /// Look `job` up. A hit settles `outcome` and returns nothing; a miss
  /// stamps the app's job digest and returns the key to insert under.
  std::optional<CacheKey> lookup(const AppJob& job, std::uint64_t seed,
                                 AppOutcome& outcome) {
    CacheKey key;
    key.config = config_fp_;
    key.seed = seed;
    std::optional<AppOutcome> hit;
    {
      // The span covers the digest too: content addressing is the real
      // cost of a lookup on large packages.
      const support::Span lookup_span("cache", "lookup");
      key.apk = job_digest(job);
      const DriverFaultGuard guard(faults_);
      hit = cache_->lookup(key);
    }
    if (hit.has_value()) {
      outcome = std::move(*hit);
      outcome.cache_hit = true;
      outcome.cache_checked = true;
      support::count("cache.hit");
      return std::nullopt;
    }
    support::count("cache.miss");
    outcome.job = key.apk;
    return key;
  }

  /// Insert a miss's settled outcome.
  void insert(const CacheKey& key, AppOutcome& outcome) {
    outcome.cache_checked = true;
    const DriverFaultGuard guard(faults_);
    cache_->insert(key, outcome);
  }

  std::optional<ResultCache> cache_;
  support::Sha256Digest config_fp_;
  DriverFaults& faults_;
};

// ---- the journal sink (docs/CHECKPOINT.md) ---------------------------------

/// Write-ahead appends of finished outcomes. A failed append or an
/// injected driver kill marks the run aborted; workers stop claiming apps
/// and run() throws RunAborted after sealing. Without a journal, append is
/// a single branch.
class JournalSink {
 public:
  JournalSink(std::optional<support::JournalWriter> journal,
              DriverFaults& faults)
      : journal_(std::move(journal)),
        stamped_(journal_.has_value() ? journal_->appended() : 0),
        faults_(faults) {}

  [[nodiscard]] bool active() const { return journal_.has_value(); }
  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& abort_message() const {
    return abort_message_;
  }

  /// Append one finished outcome. Returns false when the run must abort.
  bool append(std::size_t index, const AppOutcome& outcome) {
    if (!journal_.has_value()) return true;
    // The span covers encode + lock wait + append, so the trace shows
    // journal contention as well as raw write latency (the write-only
    // latency lives in the journal.append_write histogram).
    const support::Span journal_span("journal", "append");
    // One long-lived encode buffer per worker thread: capacity sticks
    // around after the first few appends, so encoding stops allocating.
    thread_local support::ByteWriter encoder;
    encoder.clear();
    encode_outcome_into(index, outcome, encoder);
    const support::Bytes& payload = encoder.data();
    support::count("journal.append_bytes", payload.size());
    const std::lock_guard<std::mutex> lock(faults_.mutex);
    if (aborted()) return false;
    // Install the driver fault session (if armed) so the journal.append
    // site inside JournalWriter::append and the driver.kill checked
    // boundary below draw from the same deterministic hit stream.
    std::optional<support::FaultScope> scope;
    if (faults_.session.has_value()) scope.emplace(&*faults_.session);
    const support::Status appended = journal_->append(payload);
    if (!appended.ok()) return mark_aborted(appended.error());
    if (support::fault_fire(support::FaultSite::kDriverKill)) {
      return mark_aborted(
          support::fault_message(support::FaultSite::kDriverKill) +
          support::format(" after %zu journal append(s)", outcomes()));
    }
    return true;
  }

  /// Seal the journal; returns the outcome records this run appended.
  std::size_t seal() {
    if (!journal_.has_value()) return 0;
    const std::size_t appended = outcomes();
    const support::Status sealed = journal_->seal();
    if (!sealed.ok()) support::log_warn("driver", sealed.error());
    journal_.reset();
    return appended;
  }

 private:
  /// Outcome records this run appended (the metadata record excluded).
  std::size_t outcomes() const { return journal_->appended() - stamped_; }

  /// Called under the journal mutex: the message is written exactly once.
  bool mark_aborted(std::string message) {
    abort_message_ = std::move(message);
    aborted_.store(true, std::memory_order_relaxed);
    return false;
  }

  std::optional<support::JournalWriter> journal_;
  /// Records open_journal appended before the sink took over: the
  /// metadata record of a fresh journal.
  std::size_t stamped_ = 0;
  DriverFaults& faults_;
  std::atomic<bool> aborted_{false};
  std::string abort_message_;
};

// ---- the corpus-order reduce -----------------------------------------------

/// Reduce the stats once, in corpus order: deterministic counts *and*
/// deterministic floating-point sums, independent of worker count and of
/// which outcomes were replayed vs. analyzed. The same ordered pass folds
/// the workers' payload digests into the corpus-wide unique-binary dedup
/// table (docs/CACHE.md), so its stats — and which run first persists a
/// shared blob — are deterministic too.
void reduce_in_corpus_order(
    const std::string& cache_dir,
    std::span<const std::vector<PayloadDigest>> payloads,
    CorpusResult& result) {
  // Serial, after the workers join: the stats fold and the dedup fold of
  // digests the workers already took.
  const support::Span reduce_span("runner", "reduce");
  BinaryDedupStore dedup(cache_dir.empty() ? std::string{}
                                           : cache_dir + "/blobs");
  for (std::size_t index = 0; index < result.outcomes.size(); ++index) {
    const AppOutcome& outcome = result.outcomes[index];
    if (!outcome.completed) continue;
    result.stats.absorb(outcome);
    dedup.absorb(payloads[index]);
    if (outcome.replayed) {
      ++result.replayed;
    } else {
      ++result.analyzed;
    }
  }
  result.dedup = dedup.stats();
}

}  // namespace

void AggregateStats::absorb(const AppOutcome& outcome) {
  const auto& report = outcome.report;
  ++apps;
  switch (report.status) {
    case core::DynamicStatus::kNotRun: ++not_run; break;
    case core::DynamicStatus::kRewritingFailure: ++rewriting_failure; break;
    case core::DynamicStatus::kNoActivity: ++no_activity; break;
    case core::DynamicStatus::kCrash: ++crashed; break;
    case core::DynamicStatus::kExercised: ++exercised; break;
  }
  if (outcome.timed_out) ++timed_out;
  if (outcome.attempts > 1) ++retried;
  if (outcome.quarantined) ++quarantined;
  switch (outcome.sandbox_fate) {
    case SandboxFate::kNone: break;
    case SandboxFate::kCrashed: ++sandbox_crashed; break;
    case SandboxFate::kOomKilled: ++killed_oom; break;
    case SandboxFate::kTimedOut: ++killed_timeout; break;
  }
  if (outcome.cache_checked) {
    if (outcome.cache_hit) {
      ++cache_hits;
    } else {
      ++cache_misses;
    }
  }
  if (report.decompile_failed) ++decompile_failed;
  if (report.static_dcl.any()) ++static_dcl;
  if (!report.binaries.empty()) ++intercepted;
  if (!report.remote_loaded().empty()) ++remote_loaders;
  if (!report.malware_loaded().empty()) ++malware_carriers;
  if (!report.vulns.empty()) ++vulnerable;
  for (const auto& binary : report.binaries) {
    if (!binary.privacy.leaks.empty()) {
      ++privacy_leaking;
      break;
    }
  }
  binaries += report.binaries.size();
  events += report.events.size();
  total_app_ms += outcome.wall_ms;
  if (outcome.wall_ms > max_app_ms) max_app_ms = outcome.wall_ms;
}

std::size_t resolve_jobs(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw > 0 ? hw : 1;
  const char* env = std::getenv("DYDROID_JOBS");
  if (env == nullptr || env[0] == '\0') return fallback;
  // Strict parse: "4x", "nope" or "-1" must warn-and-default, never throw
  // or silently wrap (the old strtoul accepted "4x" as 4 and "nope" as a
  // silent fallthrough). The warning goes straight to stderr — env
  // misconfiguration must be visible even when the log level is Error
  // (the CLI survey path quiets the logger).
  const auto parsed = support::parse_u64(env);
  if (!parsed.ok() || parsed.value() == 0) {
    std::fprintf(stderr,
                 "driver: ignoring invalid DYDROID_JOBS %s (%s); using %zu\n",
                 env, parsed.ok() ? "must be >= 1" : parsed.error().c_str(),
                 fallback);
    return fallback;
  }
  return static_cast<std::size_t>(parsed.value());
}

void validate_runner_config(const RunnerConfig& config,
                            std::uint64_t corpus_size) {
  if (corpus_size > kMaxCorpusApps) {
    throw std::runtime_error(support::format(
        "runner: corpus of %llu apps exceeds the %llu-app ceiling (global "
        "indices must fit the u32 trace context)",
        static_cast<unsigned long long>(corpus_size),
        static_cast<unsigned long long>(kMaxCorpusApps)));
  }
  if (seed_range_overflows(config.seed_base, corpus_size)) {
    throw std::runtime_error(support::format(
        "runner: seed base %llu overflows across %llu apps (seed_for_app "
        "would wrap and two apps would collide on one seed); lower the seed "
        "base",
        static_cast<unsigned long long>(config.seed_base),
        static_cast<unsigned long long>(corpus_size)));
  }
  if (config.shard_count == 0) {
    throw std::runtime_error(
        "runner: shard count must be at least 1 (1 = unsharded)");
  }
  if (config.shard_index >= config.shard_count) {
    throw std::runtime_error(support::format(
        "runner: shard index %u out of range for %u shard(s)",
        config.shard_index, config.shard_count));
  }
  if (config.resume && config.journal_path.empty()) {
    throw std::runtime_error("runner: resume requested without a journal path");
  }
}

CorpusRunner::CorpusRunner(const core::DyDroid& pipeline, RunnerConfig config)
    : pipeline_(&pipeline), config_(std::move(config)) {}

CorpusResult CorpusRunner::run(std::span<const AppJob> jobs) const {
  validate_runner_config(config_, jobs.size());
  const support::Stopwatch corpus_clock;
  const core::PipelineOptions& options = pipeline_->options();

  // --- corpus sharding (docs/SHARDING.md) ----------------------------------
  // This run owns the global indices ≡ shard_index (mod shard_count); the
  // worker loop walks shard-local slots and maps them back to global
  // indices, so seeds, journal records, trace context and cache keys all
  // stay global-index-derived — the invariant `dydroid merge` relies on.
  // An unsharded run is shard 0 of 1.
  const std::size_t shard_apps = static_cast<std::size_t>(shard_app_count(
      jobs.size(), config_.shard_index, config_.shard_count));
  const auto global_index_of = [&](std::size_t slot) {
    return config_.shard_index +
           slot * static_cast<std::size_t>(config_.shard_count);
  };

  CorpusResult result;
  result.shard_apps = shard_apps;
  result.threads = std::min(resolve_jobs(config_.jobs),
                            std::max<std::size_t>(shard_apps, 1));
  result.outcomes.resize(jobs.size());

  // The pipeline fingerprint keys the result cache and pins the journal's
  // metadata record, so compute it once up front when either needs it.
  const bool journaled = !config_.journal_path.empty();
  const bool cached = !config_.cache_dir.empty();
  support::Sha256Digest config_fp;
  if (cached || journaled) config_fp = config_fingerprint(*pipeline_);
  support::ShardMeta meta;
  meta.shard_index = config_.shard_index;
  meta.shard_count = config_.shard_count;
  meta.seed_base = config_.seed_base;
  meta.corpus_size = jobs.size();
  meta.outcome_codec_version = kOutcomeCodecVersion;
  meta.config_fingerprint = config_fp.bytes;

  // Replay: `done[i]` marks outcomes restored from the resume journal.
  std::vector<char> done(jobs.size(), 0);
  const bool journal_has_meta =
      config_.resume &&
      replay_journal(config_, meta, jobs, result.outcomes, done,
                     result.threads);

  // Open the journal and the cache, then arm the driver fault session they
  // share.
  DriverFaults driver_faults;
  JournalSink journal(
      journaled ? std::optional(open_journal(config_, meta, journal_has_meta))
                : std::nullopt,
      driver_faults);
  CacheTier cache(cached ? std::optional(open_cache(config_, config_fp))
                         : std::nullopt,
                  config_fp, driver_faults);
  if ((journal.active() || cache.active()) && options.faults != nullptr &&
      !options.faults->empty()) {
    driver_faults.session.emplace(
        *options.faults,
        support::fault_session_seed(config_.seed_base ^ kDriverFaultSalt, 0));
  }

  // Execute. Each worker claims the next unprocessed shard slot, maps it to
  // its global corpus index, analyzes it (through the cache tier) with its
  // global-index-derived seed and writes into that index's pre-sized
  // outcome slot — disjoint writes, no locks on the hot path (the journal
  // mutex is only ever taken when journaling is enabled). A pooled worker
  // claims a run of slots instead and sends their misses to its child in
  // one round trip (docs/ISOLATION.md §3). Graceful stops and aborts are
  // polled between claims only: every app of an in-flight claim finishes
  // and is journaled.
  AttemptExecutor executor(*pipeline_, config_, jobs, result.threads);
  // Each completed app's payload digests for the dedup table, taken by the
  // worker that ran or replayed it while its report is still hot.
  std::vector<std::vector<PayloadDigest>> payloads(jobs.size());
  std::atomic<std::size_t> next{0};
  const auto stopping = [&] {
    return journal.aborted() ||
           (config_.stop != nullptr &&
            config_.stop->load(std::memory_order_relaxed));
  };
  const auto thread_loop = [&](std::size_t worker_id) {
    while (!stopping()) {
      const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
      if (slot >= shard_apps) break;
      const std::size_t index = global_index_of(slot);
      if (done[index]) {  // replayed from the resume journal
        payloads[index] = digest_payloads(result.outcomes[index].report);
        continue;
      }
      AppOutcome& outcome = result.outcomes[index];
      const std::uint64_t seed = job_seed(jobs, config_.seed_base, index);
      // Ambient tagging for the cache and journal spans (the per-attempt
      // spans install their own nested context with the attempt ordinal).
      const support::TraceContextScope trace_context(
          trace_app_id(index), 0, static_cast<std::uint32_t>(worker_id));
      // One digest per app: the cache tier takes it in its lookup span.
      if (journal.active() && !cache.active()) {
        outcome.job = job_digest(jobs[index]);
      }
      cache.process(jobs[index], seed, outcome, [&] {
        executor.analyze_app(outcome, seed, index, worker_id);
      });
      // Outside the attempt's wall clock: wall_ms stays the analysis's.
      payloads[index] = digest_payloads(outcome.report);
      if (!journal.append(index, outcome)) break;
    }
  };
  const auto pool_loop = [&](std::size_t worker_id) {
    // Apps per claim: 1 at first and after a split batch, doubling after
    // each clean one, at most about half of this thread's fair share of
    // what is left (so the threads drain together) and never past the
    // batch room of its worker.
    std::size_t limit = 1;
    std::vector<BatchApp> run;
    while (!stopping()) {
      const std::size_t claimed = next.load(std::memory_order_relaxed);
      const std::size_t fair =
          claimed < shard_apps ? (shard_apps - claimed) / (2 * result.threads)
                               : 0;
      const std::size_t want = std::max<std::size_t>(
          1, std::min({limit, fair, executor.batch_room(worker_id)}));
      const std::size_t first =
          next.fetch_add(want, std::memory_order_relaxed);
      if (first >= shard_apps) break;
      run.clear();
      for (std::size_t slot = first; slot < std::min(first + want, shard_apps);
           ++slot) {
        const std::size_t index = global_index_of(slot);
        if (done[index]) {  // replayed from the resume journal
          payloads[index] = digest_payloads(result.outcomes[index].report);
          continue;
        }
        AppOutcome& outcome = result.outcomes[index];
        if (journal.active() && !cache.active()) {
          outcome.job = job_digest(jobs[index]);
        }
        run.push_back({index, job_seed(jobs, config_.seed_base, index),
                       &outcome});
      }
      const bool clean = cache.process_run(
          jobs, run, worker_id, [&](std::span<const BatchApp> misses) {
            return executor.analyze_batch(misses, worker_id);
          });
      limit = clean ? std::min(2 * limit, kPoolBatchCap) : 1;
      for (const BatchApp& app : run) {
        const support::TraceContextScope trace_context(
            trace_app_id(app.index), 0, static_cast<std::uint32_t>(worker_id));
        payloads[app.index] = digest_payloads(app.outcome->report);
        if (!journal.append(app.index, *app.outcome)) return;
      }
    }
  };
  const auto worker = [&](std::size_t worker_id) {
    if (config_.isolated()) {
      pool_loop(worker_id);
    } else {
      thread_loop(worker_id);
    }
    // Retire this thread's pooled worker on every way out of the loop —
    // corpus drained, graceful stop, abort.
    executor.retire(worker_id);
  };
  if (result.threads <= 1) {
    worker(0);  // serial fast path: no thread spawn, same code path
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(result.threads);
    for (std::size_t t = 0; t < result.threads; ++t) {
      pool.emplace_back(worker, t);
    }
    pool.clear();  // join
  }
  // A stopped or aborted run leaves the replayed slots past the last claim
  // undigested: no worker reached them.
  for (std::size_t slot = next.load(); slot < shard_apps; ++slot) {
    const std::size_t index = global_index_of(slot);
    if (done[index]) {
      payloads[index] = digest_payloads(result.outcomes[index].report);
    }
  }

  reduce_in_corpus_order(config_.cache_dir, payloads, result);

  // Seal the journal and the cache before reporting the run's fate:
  // whatever happens next (return or throw), the files on disk are
  // complete, compacted and resumable.
  const std::size_t appended_by_this_run = journal.seal();
  cache.seal(result);
  if (journal.aborted()) {
    throw RunAborted("runner: run aborted mid-corpus: " +
                         journal.abort_message(),
                     appended_by_this_run);
  }
  result.interrupted = result.completed() < shard_apps;
  result.wall_ms = corpus_clock.elapsed_ms();
  return result;
}

CorpusResult CorpusRunner::run(const appgen::Corpus& corpus) const {
  const auto jobs = jobs_from_corpus(corpus);
  return run(jobs);
}

std::vector<AppJob> jobs_from_corpus(const appgen::Corpus& corpus) {
  std::vector<AppJob> jobs;
  jobs.reserve(corpus.apps.size());
  for (const auto& app : corpus.apps) {
    AppJob job;
    job.apk = app.apk;
    job.scenario = app.scenario;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace dydroid::driver
