// The DyDroid pipeline (Figure 1): decompile → static DCL filter →
// obfuscation analysis → (rewrite if needed) → dynamic analysis with
// interception → provenance/entity identification → malware detection →
// privacy tracking → vulnerability analysis. One call per app; the whole
// measurement (Section V) is this pipeline mapped over a corpus by
// driver::CorpusRunner.
//
// The per-app path is decomposed into composable stages (core/stages.hpp)
// that pass a single AnalysisContext. `analyze` is const and thread-safe,
// so one instance can be shared by any number of corpus worker threads.
// The one piece of shared mutable state is PerBinaryStage's verdict memo
// (core/verdict_memo.hpp), which guards itself.
#pragma once

#include <memory>
#include <optional>

#include "core/engine.hpp"
#include "core/static_filter.hpp"
#include "core/vulnerability.hpp"
#include "malware/droidnative.hpp"
#include "obfuscation/detector.hpp"
#include "privacy/flowdroid.hpp"
#include "support/blob.hpp"
#include "support/fault.hpp"

namespace dydroid::core {

class Stage;  // core/stages.hpp

/// Runtime-environment knobs (paper Table VIII configurations).
struct RuntimeConfig {
  std::optional<std::int64_t> time_ms;  // e.g. before the app release date
  bool airplane_mode = false;
  bool wifi_enabled = true;
  bool location_enabled = true;

  void apply(os::SystemServices& services) const;
};

struct PipelineOptions {
  EngineConfig engine;
  os::DeviceConfig device;
  RuntimeConfig runtime;
  /// Trained malware detector; null disables malware scanning. It must
  /// outlive the pipeline and must not be retrained while set: the
  /// per-binary verdict memo keys on its address.
  const malware::DroidNative* detector = nullptr;

  // --- fault handling (docs/FAULTS.md) --------------------------------------
  /// Deterministic fault-injection plan; null/empty disables injection (the
  /// production fast path). The plan must outlive the pipeline. Each
  /// analyze() call derives its fault session from (request.seed,
  /// request.attempt), so injected failures are reproducible per app.
  const support::FaultPlan* faults = nullptr;
  /// Per-app wall-clock budget in ms; 0 disables. Enforced by
  /// driver::CorpusRunner: an over-budget app counts as timed_out (and is
  /// retried/quarantined under retry_on_crash), so one pathological app
  /// cannot stall a worker unnoticed.
  double max_app_wall_ms = 0.0;
  /// Retry a crashed or timed-out app once with a fresh fault session
  /// (attempt salts the session seed); if the retry fails too, the app is
  /// quarantined. Policy lives in driver::CorpusRunner.
  bool retry_on_crash = false;
};

enum class DynamicStatus {
  kNotRun,            // filtered out (no DCL code) or static-only mode
  kRewritingFailure,  // apktool-crash during permission injection (Table II)
  kNoActivity,        // Monkey cannot exercise (Table II)
  kCrash,             // app crashed at runtime (Table II)
  kExercised,         // fuzzed to completion (Table II)
};

std::string_view dynamic_status_name(DynamicStatus status);

/// Per-intercepted-binary analysis results.
struct BinaryReport {
  InterceptedBinary binary;
  std::optional<std::string> origin_url;  // remote provenance
  std::optional<malware::Detection> malware;
  privacy::PrivacyReport privacy;  // DEX binaries only
};

struct AppReport {
  std::string package;

  // Static phase.
  bool decompile_failed = false;  // anti-decompilation (tool crash)
  StaticFilterResult static_dcl;
  obfuscation::ObfuscationReport obfuscation;
  int min_sdk = 0;

  // Dynamic phase.
  DynamicStatus status = DynamicStatus::kNotRun;
  std::string crash_message;
  bool storage_recovered = false;
  std::vector<DclEvent> events;
  std::vector<BinaryReport> binaries;
  std::vector<vm::VmEvent> vm_events;
  std::vector<VulnFinding> vulns;

  // Convenience queries -----------------------------------------------------
  [[nodiscard]] bool intercepted(CodeKind kind) const;
  /// Entities observed launching DCL of a kind: {own, third_party}.
  struct EntityUse {
    bool own = false;
    bool third_party = false;
  };
  [[nodiscard]] EntityUse entity_use(CodeKind kind) const;
  /// Binaries whose content arrived from the network (policy violations).
  [[nodiscard]] std::vector<const BinaryReport*> remote_loaded() const;
  [[nodiscard]] std::vector<const BinaryReport*> malware_loaded() const;
};

/// One unit of corpus work: the bytes, the fuzzing seed and (optionally)
/// the app's surroundings, applied to the fresh device before install. The
/// scenario is taken by pointer; it must outlive the analyze() call.
struct AnalysisRequest {
  /// The APK's serialized bytes as a refcounted view: enqueueing a corpus
  /// never copies package contents, and the whole analysis shares this one
  /// buffer (parsed once by StaticStage).
  support::Blob apk;
  std::uint64_t seed = 0;
  const os::Scenario* scenario_setup = nullptr;
  /// Retry ordinal (0 = first attempt). Salts the fault session so
  /// probability-mode faults are transient across retries — deterministically.
  std::uint32_t attempt = 0;
};

class DyDroid {
 public:
  explicit DyDroid(PipelineOptions options = {});
  /// Custom stage list (testing/extension); stages run in the given order
  /// under the same no-exceptions guarantee as the canonical pipeline.
  DyDroid(PipelineOptions options,
          std::vector<std::unique_ptr<const Stage>> stages);
  ~DyDroid();

  /// Analyze one APK end to end. `seed` drives the fuzzing determinism.
  /// Const and thread-safe: per-app state lives in the per-call
  /// AnalysisContext and PerBinaryStage's verdict memo locks itself, so one
  /// DyDroid serves many worker threads.
  AppReport analyze(support::Blob apk, std::uint64_t seed) const;
  /// Borrowed-span convenience: copies once into a fresh Blob.
  AppReport analyze(std::span<const std::uint8_t> apk_bytes,
                    std::uint64_t seed) const;
  AppReport analyze(const AnalysisRequest& request) const;

  [[nodiscard]] const PipelineOptions& options() const { return options_; }
  /// Mutable access for pre-run configuration only — do not mutate options
  /// while worker threads are inside analyze().
  [[nodiscard]] PipelineOptions& options() { return options_; }

  /// Stage names in execution order. Part of the result cache's config
  /// fingerprint (docs/CACHE.md): a custom stage list must never share
  /// cache entries with the canonical pipeline.
  [[nodiscard]] std::vector<std::string_view> stage_names() const;

 private:
  PipelineOptions options_;
  std::vector<std::unique_ptr<const Stage>> stages_;
};

}  // namespace dydroid::core
