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
  cache_config.fsync_each_insert = config.journal_fsync;
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
/// and 70–72k apps/s). A larger cap only lengthens what a failed round
/// trip re-sends, and 32 apps stay far inside one app's deadline.
constexpr std::size_t kPoolBatchCap = 32;

/// One app of a claimed run, as the cache tier and the executor see it.
struct BatchApp {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  AppOutcome* outcome = nullptr;
};

/// Grows the wall_ms of the apps one attempt runs for, on every exit path
/// — normal return, a synthesized fate, or an exception escaping the
/// attempt machinery — exactly once: each app gets what its worker
/// measured of its own attempt (charge_worker; nothing inline or without
/// a clean response) plus an equal share of the rest of the elapsed time.
/// The walls therefore sum to what the caller waited, and an app that ran
/// alone gets the whole of it. A split round trip charges nothing
/// (cancel): the round trips its apps are re-sent in do.
class AttemptWall {
 public:
  explicit AttemptWall(std::span<const BatchApp> apps) : apps_(apps) {}
  AttemptWall(const AttemptWall&) = delete;
  AttemptWall& operator=(const AttemptWall&) = delete;
  ~AttemptWall() {
    if (apps_.empty()) return;
    const double share = std::max(0.0, clock_.elapsed_ms() - worker_ms_) /
                         static_cast<double>(apps_.size());
    for (const BatchApp& app : apps_) app.outcome->wall_ms += share;
  }
  [[nodiscard]] double elapsed_ms() const { return clock_.elapsed_ms(); }
  void charge_worker(AppOutcome& outcome, double ms) {
    outcome.wall_ms += ms;
    worker_ms_ += ms;
  }
  void cancel() { apps_ = {}; }

 private:
  support::Stopwatch clock_;
  std::span<const BatchApp> apps_;
  double worker_ms_ = 0.0;
};

/// Record an attempt as it *starts*: a journaled outcome must never claim
/// an attempt that did not run (live stats and journal replay count
/// `retried` from this field). The fate reflects the *final* attempt: a
/// kill on attempt 0 that clears on the retry leaves the app clean, like
/// any transient crash.
void begin_attempt(AppOutcome& outcome, std::uint32_t attempt) {
  outcome.attempts = attempt + 1;
  outcome.sandbox_fate = SandboxFate::kNone;
  outcome.fatal_signal = 0;
}

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

/// True when a response answers `requests`: one outcome per dispatch, in
/// order, each naming its app and seed.
bool answers(const std::vector<DecodedOutcome>& shipped,
             std::span<const PoolRequest> requests) {
  return std::equal(shipped.begin(), shipped.end(), requests.begin(),
                    requests.end(),
                    [](const DecodedOutcome& got, const PoolRequest& sent) {
                      return got.index == sent.app_index &&
                             got.outcome.seed == sent.seed;
                    });
}

/// Runs analysis attempts and the per-app retry policy over claimed runs
/// of apps. Thread mode runs an attempt inline on the driver thread; pool
/// mode ships attempts to the thread's forked worker, whose serve loop
/// runs the very same inline path — same seeds, same per-app fault
/// session, same crash-conversion belt, which is what keeps clean pooled
/// outcomes byte-identical to thread mode. Every pooled attempt goes
/// through one round trip, whatever the number of apps it carries.
/// Worker ownership is strictly 1:1 — each driver thread only ever
/// touches its own slot, so no locks.
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

  /// Apps the next claim of `worker` may carry: one in thread mode; in
  /// pool mode the batch cap, never past what its worker's recycling
  /// budget has left (so a budget of 1 keeps one app per process).
  [[nodiscard]] std::size_t room(std::size_t worker) const {
    if (slots_.empty()) return 1;
    if (config_.pool_recycle_apps == 0) return kPoolBatchCap;
    const PoolSlot& slot = slots_[worker];
    const std::uint64_t served = slot.worker.has_value() ? slot.apps : 0;
    return static_cast<std::size_t>(std::min<std::uint64_t>(
        kPoolBatchCap, config_.pool_recycle_apps - served));
  }

  /// Analyze the apps of a claimed run, each under the full per-app policy
  /// (settle_app), in run order. In pool mode the first attempts of the
  /// apps whose own sandbox.crash, sandbox.pool.recycle and
  /// sandbox.pool.spawn draws do not fire share one round trip when there
  /// are two or more; every other first attempt, every retry and each app
  /// of a split round trip goes as a round trip of one, so every fate,
  /// re-dispatch and deadline message stays with the app that caused it.
  /// Returns false when a round trip was split.
  bool analyze(std::span<const BatchApp> apps, std::size_t worker) {
    std::vector<BatchApp> shared;
    for (const BatchApp& app : apps) {
      app.outcome->seed = app.seed;
      if (!slots_.empty() && !runs_alone(app.seed)) shared.push_back(app);
    }
    std::vector<char> failed(shared.size(), 0);
    bool clean = true;
    if (shared.size() > 1) {
      try {
        clean = round_trip(shared, 0, worker, failed);
      } catch (...) {
        // The escaping-exception belt, round-trip-sized: the worker is
        // retired and each app starts over alone.
        slots_[worker].worker.reset();
        for (const BatchApp& app : shared) {
          app.outcome->wall_ms = 0.0;
          app.outcome->timed_out = false;
        }
        clean = false;
      }
    }
    if (!clean || shared.size() < 2) shared.clear();
    std::size_t k = 0;
    for (const BatchApp& app : apps) {
      const bool rode = k < shared.size() && shared[k].outcome == app.outcome;
      settle_app(app, worker, [&] {
        return rode ? failed[k] != 0 : run_attempt(app, 0, worker);
      });
      if (rode) ++k;
    }
    return clean;
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
  void settle_app(const BatchApp& app, std::size_t worker,
                  const First& first) {
    AppOutcome& outcome = *app.outcome;
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
        failed = run_attempt(app, 1, worker);
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

  /// One attempt of `app`: inline in thread mode, a round trip of one in
  /// pool mode. Returns the "failed" predicate the retry policy uses.
  bool run_attempt(const BatchApp& app, std::uint32_t attempt,
                   std::size_t worker) {
    if (slots_.empty()) return run_inline(app, attempt, worker);
    char failed = 0;
    (void)round_trip(std::span(&app, 1), attempt, worker,
                     std::span(&failed, 1));
    return failed != 0;
  }

  /// One attempt in this process, recording the attempt count, trace
  /// context and wall time on every path. The pipeline already converts
  /// stage failures into crash outcomes; the catch blocks are the
  /// last-resort belt for anything else (bad_alloc, internal logic errors).
  bool run_inline(const BatchApp& app, std::uint32_t attempt,
                  std::size_t worker) {
    AppOutcome& outcome = *app.outcome;
    begin_attempt(outcome, attempt);
    // Nested ambient context: every span opened under this attempt is
    // tagged (app index, attempt, worker) without any plumbing.
    const support::TraceContextScope trace_context(
        trace_app_id(app.index), attempt, static_cast<std::uint32_t>(worker));
    const AttemptWall wall(std::span(&app, 1));
    const AppJob& job = jobs_[app.index];
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

  /// True when an app's first attempt must go alone: one of the draws a
  /// round trip makes before dispatch (sandbox.crash,
  /// sandbox.pool.recycle, sandbox.pool.spawn) fires in its session. A
  /// decision depends only on the session seed, the site and its hit
  /// count, so the round trip, drawing again from a fresh session, meets
  /// the same ones.
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
    return slot.worker->call(request, kPoolRpcMagic);
  }

  /// One round trip to `worker`'s child, spawning one if needed, carrying
  /// attempt `attempt` of each of `apps` (only first attempts ever share
  /// one). Each app draws sandbox.crash, sandbox.pool.recycle and
  /// sandbox.pool.spawn before dispatch and sandbox.pool.rpc after a clean
  /// response, from its own session. A clean response settles every app
  /// (`failed[k]` for the retry policy): the worker's report and
  /// timed_out, or a torn-response fate where its rpc draw fires, which
  /// retires the worker. A round trip that does not come back clean — a
  /// failed spawn, a dead or deadline-killed worker, a desync, a torn,
  /// undecodable or misaddressed response — retires the worker, and that
  /// is the one step that depends on the size: a round trip of one fates
  /// its app (classify_rpc; an external SIGKILL is re-dispatched at most
  /// twice), a larger one counts sandbox.pool.split, settles nothing and
  /// returns false, and the caller re-sends each app alone. Recycling
  /// (injected, or after pool_recycle_apps apps) happens strictly between
  /// round trips: a worker told to retire ships its response, then exits.
  bool round_trip(std::span<const BatchApp> apps, std::uint32_t attempt,
                  std::size_t worker, std::span<char> failed) {
    const support::TraceContextScope trace_context(
        trace_app_id(apps.front().index), attempt,
        static_cast<std::uint32_t>(worker));
    AttemptWall wall(apps);
    PoolSlot& slot = slots_[worker];
    std::vector<std::optional<support::FaultSession>> faults;
    faults.reserve(apps.size());
    const auto fires = [&](std::size_t k, support::FaultSite site) {
      if (!faults[k].has_value()) return false;
      const support::FaultScope scope(&*faults[k]);
      return support::fault_fire(site);
    };
    std::vector<PoolRequest> requests(apps.size());
    bool recycle = false;
    for (std::size_t k = 0; k < apps.size(); ++k) {
      begin_attempt(*apps[k].outcome, attempt);
      faults.push_back(sandbox_session(apps[k].seed, attempt));
      requests[k].app_index = apps[k].index;
      requests[k].attempt = attempt;
      requests[k].seed = apps[k].seed;
      requests[k].worker = static_cast<std::uint32_t>(worker);
      // Drawn here so the decision is deterministic in the supervisor's
      // stream; *executed* in the child as a real abort, so the injected
      // crash exercises genuine signal-death classification end to end.
      requests[k].crash_child = fires(k, support::FaultSite::kSandboxCrash);
      recycle = fires(k, support::FaultSite::kPoolRecycle) || recycle;
    }
    const auto fail = [&](Fate fate) {
      slot.worker.reset();
      if (apps.size() == 1) {
        failed[0] = settle_fate(*apps[0].outcome, std::move(fate));
        return true;
      }
      wall.cancel();
      support::count("sandbox.pool.split");
      return false;
    };

    for (int respawn = 0;; ++respawn) {
      // The spawn fault is drawn *unconditionally* — "would the spawn this
      // attempt might need fail?" — never gated on whether this thread's
      // worker happens to be alive. Gating it on pool state would make the
      // hit stream (and therefore which apps fail under p: mode) depend on
      // the worker count, breaking byte-identical reports at any -j.
      bool spawn_fault = false;
      for (std::size_t k = 0; k < apps.size(); ++k) {
        spawn_fault = fires(k, support::FaultSite::kPoolSpawn) || spawn_fault;
      }
      if (spawn_fault) {
        return fail(
            {SandboxFate::kCrashed, 0,
             "sandbox: spawn failed: " +
                 support::fault_message(support::FaultSite::kPoolSpawn)});
      }
      if (!slot.worker.has_value()) {
        const support::Status spawned = spawn(slot);
        if (!spawned.ok()) {
          return fail({SandboxFate::kCrashed, 0,
                       "sandbox: spawn failed: " + spawned.error()});
        }
      }
      const bool retire =
          recycle || (config_.pool_recycle_apps > 0 &&
                      slot.apps + apps.size() >= config_.pool_recycle_apps);
      requests.back().retire = retire;
      const support::PoolRpcResult rpc =
          call(slot, encode_pool_request(requests));
      if (rpc.status != support::PoolRpcResult::Status::kOk) {
        if (apps.size() == 1 && external_kill(rpc) &&
            respawn < kExternalKillRespawns) {
          // Re-dispatch the in-flight app to a fresh worker.
          slot.worker.reset();  // already dead and reaped
          support::count("sandbox.respawned");
          continue;
        }
        return fail(classify_rpc(rpc, limits_.wall_deadline_ms));
      }
      auto decoded = decode_pool_responses(rpc.message);
      if (decoded.ok() && !answers(decoded.value(), requests)) {
        decoded = support::Result<std::vector<DecodedOutcome>>::failure(
            "sandbox: result frame for the wrong app");
      }
      // A response that framed but does not decode means the stream can no
      // longer be trusted.
      if (!decoded.ok()) {
        return fail({SandboxFate::kCrashed, 0, decoded.error()});
      }
      slot.apps += apps.size();
      bool torn = false;
      for (std::size_t k = 0; k < apps.size(); ++k) {
        AppOutcome& outcome = *apps[k].outcome;
        AppOutcome& shipped = decoded.value()[k].outcome;
        wall.charge_worker(outcome, shipped.wall_ms);
        if (fires(k, support::FaultSite::kPoolRpc)) {
          torn = true;
          failed[k] = settle_fate(
              outcome, {SandboxFate::kCrashed, 0,
                        support::fault_message(support::FaultSite::kPoolRpc)});
          continue;
        }
        outcome.report = std::move(shipped.report);
        if (shipped.timed_out) outcome.timed_out = true;
        failed[k] = shipped.timed_out ||
                    outcome.report.status == core::DynamicStatus::kCrash;
      }
      // A torn response retires the worker along with its outcome.
      if (torn) {
        slot.worker.reset();
      } else if (retire) {
        slot.worker->shutdown();
        slot.worker.reset();
        support::count("sandbox.pool.recycled");
      }
      return true;
    }
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
        (void)run_inline({request.app_index, request.seed, &outcome},
                         request.attempt, request.worker);
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

  /// The tier over a claimed run: every app is looked up, the misses go
  /// to `analyze` in one call, and their settled outcomes are inserted.
  /// Returns what `analyze` returned (true when nothing missed).
  template <typename Analyze>
  bool process(std::span<const AppJob> jobs, std::span<const BatchApp> run,
               std::size_t worker, const Analyze& analyze) {
    if (!cache_.has_value()) return run.empty() || analyze(run);
    std::vector<BatchApp> misses;
    for (const BatchApp& app : run) {
      const support::TraceContextScope trace_context(
          trace_app_id(app.index), 0, static_cast<std::uint32_t>(worker));
      if (!lookup(jobs[app.index], app.seed, *app.outcome)) {
        misses.push_back(app);
      }
    }
    const bool clean = misses.empty() || analyze(std::span(misses));
    for (const BatchApp& app : misses) {
      const support::TraceContextScope trace_context(
          trace_app_id(app.index), 0, static_cast<std::uint32_t>(worker));
      insert(app.seed, *app.outcome);
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
  /// Look `job` up under `seed`. A hit settles `outcome` and returns true;
  /// a miss stamps the app's job digest, which its insert keys on.
  bool lookup(const AppJob& job, std::uint64_t seed, AppOutcome& outcome) {
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
      return true;
    }
    support::count("cache.miss");
    outcome.job = key.apk;
    return false;
  }

  /// Insert a miss's settled outcome under its job digest and `seed`.
  void insert(std::uint64_t seed, AppOutcome& outcome) {
    outcome.cache_checked = true;
    CacheKey key;
    key.apk = outcome.job;
    key.config = config_fp_;
    key.seed = seed;
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
/// each report's payload digests into the corpus-wide unique-binary dedup
/// table (docs/CACHE.md), so its stats — and which run first persists a
/// shared blob — are deterministic too.
void reduce_in_corpus_order(const std::string& cache_dir,
                            CorpusResult& result) {
  // Serial, after the workers join: the stats fold and the dedup fold of
  // digests the reports already carry.
  const support::Span reduce_span("runner", "reduce");
  BinaryDedupStore dedup(cache_dir.empty() ? std::string{}
                                           : cache_dir + "/blobs");
  for (const AppOutcome& outcome : result.outcomes) {
    if (!outcome.completed) continue;
    result.stats.absorb(outcome);
    dedup.absorb(outcome.report.binaries);
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

  // Execute. Each worker claims the next run of unprocessed shard slots,
  // maps them to their global corpus indices, looks them up in the cache
  // tier, analyzes the misses with their global-index-derived seeds and
  // writes each outcome into its index's pre-sized slot — disjoint writes,
  // no locks on the hot path (the journal mutex is only ever taken when
  // journaling is enabled) — then journals them in slot order. A run is
  // one slot in thread mode; a pooled worker's misses share one round trip
  // (docs/ISOLATION.md §3). Graceful stops and aborts are polled between
  // claims only: every app of an in-flight claim finishes, and is
  // journaled unless the journal itself failed.
  AttemptExecutor executor(*pipeline_, config_, jobs, result.threads);
  std::atomic<std::size_t> next{0};
  const auto stopping = [&] {
    return journal.aborted() ||
           (config_.stop != nullptr &&
            config_.stop->load(std::memory_order_relaxed));
  };
  const auto worker = [&](std::size_t worker_id) {
    // Apps per claim: 1 at first and after a split round trip, doubling
    // after each clean one, at most about half of this thread's fair share
    // of what is left (so the threads drain together) and never past the
    // executor's room for this worker (1 in thread mode).
    std::size_t limit = 1;
    std::vector<BatchApp> run;
    while (!stopping()) {
      const std::size_t claimed = next.load(std::memory_order_relaxed);
      const std::size_t fair =
          claimed < shard_apps ? (shard_apps - claimed) / (2 * result.threads)
                               : 0;
      const std::size_t want = std::max<std::size_t>(
          1, std::min({limit, fair, executor.room(worker_id)}));
      const std::size_t first =
          next.fetch_add(want, std::memory_order_relaxed);
      if (first >= shard_apps) break;
      run.clear();
      for (std::size_t slot = first; slot < std::min(first + want, shard_apps);
           ++slot) {
        const std::size_t index = global_index_of(slot);
        if (done[index]) continue;  // replayed from the resume journal
        AppOutcome& outcome = result.outcomes[index];
        // One digest per app: the cache tier takes it in its lookup span.
        if (journal.active() && !cache.active()) {
          outcome.job = job_digest(jobs[index]);
        }
        run.push_back({index, job_seed(jobs, config_.seed_base, index),
                       &outcome});
      }
      const bool clean = cache.process(
          jobs, run, worker_id, [&](std::span<const BatchApp> misses) {
            return executor.analyze(misses, worker_id);
          });
      limit = clean ? std::min(2 * limit, kPoolBatchCap) : 1;
      for (const BatchApp& app : run) {
        // Ambient tagging for the journal span.
        const support::TraceContextScope trace_context(
            trace_app_id(app.index), 0, static_cast<std::uint32_t>(worker_id));
        // A failed append aborts the run, which ends the claim loop.
        if (!journal.append(app.index, *app.outcome)) break;
      }
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

  reduce_in_corpus_order(config_.cache_dir, result);

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
