// Deterministic fault injection (support::FaultInjector subsystem).
//
// The paper's headline numbers (Table II) are outcome histograms over
// 58,739 real-world apps, 7,664 of which crashed, failed rewriting or never
// ran — so the measurement system must survive and *correctly classify*
// malformed inputs and mid-analysis failures. This header provides the
// scaffolding that proves it does:
//
//   * FaultSite   — a named injection point threaded through every layer
//                   that fails in the wild (container parsing, dex parsing,
//                   repacking, device boot/install, interceptor I/O,
//                   native-library loading).
//   * FaultSpec   — when a site fires: never / always / on the Nth hit /
//                   with probability p.
//   * FaultPlan   — an immutable site→spec table, parseable from a compact
//                   grammar ("apk.deserialize=always,device.install=p:0.25").
//   * FaultSession— the per-app mutable state (hit counters). Decisions are
//                   a pure function of (session seed, site, hit index), so a
//                   run is reproducible from the app's corpus seed no matter
//                   how sites interleave or how many workers run.
//   * FaultScope  — RAII installer of the thread-ambient session. Deep call
//                   sites query `fault_fire(site)`; with no ambient session
//                   installed that is a single branch, so production runs
//                   pay nothing.
//
// Thread-safety: a FaultPlan is immutable after construction and may be
// shared by any number of workers; a FaultSession must be confined to one
// app analysis (the pipeline installs one per analyze() call on the calling
// thread).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/error.hpp"

namespace dydroid::support {

/// Named injection sites, one per layer that can fail in the wild.
enum class FaultSite : std::uint8_t {
  kApkDeserialize,   // ApkFile::deserialize — truncated/corrupt container
  kManifestParse,    // Manifest::from_text — malformed manifest
  kDexParse,         // dex::DexFile::deserialize — bad string/method data
  kRewriteRepack,    // analysis::rewrite_with_permission — repack failure
  kDeviceBoot,       // os::Device construction — device unavailable
  kDeviceInstall,    // PackageManager::install — install timeout
  kInterceptorIo,    // interceptor snapshot I/O — short write, snapshot lost
  kNativeLoad,       // nativebin::NativeLibrary::deserialize — bad .so
  // Driver-level sites (docs/CHECKPOINT.md). These fire in the corpus
  // driver's own fault session (not the per-app session), so kill/resume
  // harnesses can abort the *run* deterministically after the N-th
  // journal append.
  kJournalAppend,    // support::JournalWriter::append — torn record write
  kDriverKill,       // CorpusRunner checked boundary — driver dies mid-run
  kCacheRead,        // driver::ResultCache::lookup — read error, treat as miss
  kCacheWrite,       // driver::ResultCache::insert — write error, entry dropped
  // Sandbox site (docs/ISOLATION.md): drawn in the supervisor's per-app
  // sandbox session, executed in the *child*, which aborts so the
  // supervisor classifies a real signal death.
  kSandboxCrash,     // sandbox child — deterministic abort (signal death)
  // Worker-pool sites (docs/ISOLATION.md). All three fire in the
  // supervisor's per-attempt sandbox session; spawn/rpc fail the attempt
  // (quarantine), recycle forces a worker restart without touching the
  // outcome — so recycling machinery is testable under the fault harness.
  kPoolSpawn,        // pool worker (re)spawn fails, app quarantined
  kPoolRpc,          // pool response treated as torn, recover + quarantine
  kPoolRecycle,      // force-recycle the worker after a clean response
};

inline constexpr std::size_t kFaultSiteCount = 16;

/// All sites, in enum order (the injection-site catalog).
const std::array<FaultSite, kFaultSiteCount>& all_fault_sites();

/// Stable site name used by the FaultPlan grammar and diagnostics.
std::string_view fault_site_name(FaultSite site);

/// Inverse of fault_site_name; empty optional for unknown names is modelled
/// as a Result to carry the offending token.
Result<FaultSite> fault_site_from_name(std::string_view name);

/// When a site fires.
struct FaultSpec {
  enum class Mode : std::uint8_t {
    kNever,        // site disabled (default)
    kAlways,       // every hit fires
    kNth,          // exactly the Nth hit (1-based) fires
    kProbability,  // each hit fires independently with probability p
  };
  Mode mode = Mode::kNever;
  double probability = 0.0;  // kProbability
  std::uint32_t nth = 0;     // kNth (1-based)

  static FaultSpec never() { return {}; }
  static FaultSpec always() { return {Mode::kAlways, 0.0, 0}; }
  static FaultSpec on_nth(std::uint32_t n) { return {Mode::kNth, 0.0, n}; }
  static FaultSpec with_probability(double p) {
    return {Mode::kProbability, p, 0};
  }
};

/// Immutable site→spec table. Thread-safe to share once built.
class FaultPlan {
 public:
  /// Parse the plan grammar: a comma-separated list of `site=mode` entries
  /// where mode is `always`, `nth:<N>` (1-based) or `p:<float in [0,1]>`.
  ///   "apk.deserialize=always,device.install=p:0.25,dex.parse=nth:2"
  static Result<FaultPlan> parse(std::string_view text);

  void set(FaultSite site, FaultSpec spec);
  [[nodiscard]] const FaultSpec& spec(FaultSite site) const;
  /// True when no site is armed (the plan is a no-op).
  [[nodiscard]] bool empty() const;
  /// Round-trip back to the grammar (armed sites only, enum order).
  [[nodiscard]] std::string to_string() const;

 private:
  std::array<FaultSpec, kFaultSiteCount> specs_{};
};

/// Derive the session seed for one app attempt. Retries get a fresh stream
/// (attempt salts the seed), which is what makes probability-mode faults
/// transient: a crash on attempt 0 can clear on the retry — deterministically.
[[nodiscard]] std::uint64_t fault_session_seed(std::uint64_t app_seed,
                                               std::uint32_t attempt);

/// Per-app fault state. Confine to one analysis on one thread.
class FaultSession {
 public:
  FaultSession(const FaultPlan& plan, std::uint64_t seed);

  /// Check-and-consume one hit of `site`. The decision is a pure function
  /// of (seed, site, hit index) — independent of how other sites interleave.
  [[nodiscard]] bool should_fire(FaultSite site);

  /// Total faults fired in this session.
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  const FaultPlan* plan_;
  std::uint64_t seed_;
  std::array<std::uint32_t, kFaultSiteCount> hits_{};
  std::uint64_t fired_ = 0;
};

/// RAII installer of the calling thread's ambient fault session. Nesting
/// restores the previous session on destruction.
class FaultScope {
 public:
  explicit FaultScope(FaultSession* session);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  FaultSession* previous_;
};

/// The ambient session for this thread, or null when fault injection is off.
[[nodiscard]] FaultSession* current_fault_session();

/// Check-and-consume at an injection site: false (single branch) when no
/// ambient session is installed. This is the only call sites make.
[[nodiscard]] bool fault_fire(FaultSite site);

/// Uniform failure message for an injected fault, e.g.
/// "fault(device.install): injected failure".
[[nodiscard]] std::string fault_message(FaultSite site);

}  // namespace dydroid::support
