// The DyDroid pipeline decomposed into named, individually-testable stages
// (Figure 1): StaticStage (decompile + DCL filter + obfuscation analysis),
// RewriteStage (permission injection), DynamicStage (device boot + fuzzing
// with interception), PerBinaryStage (provenance, malware, privacy per
// intercepted binary) and VulnStage (code-injection vulnerability analysis).
//
// Stages communicate exclusively through one AnalysisContext value and
// report failures through a support::Result status instead of exceptions,
// so a corpus worker thread can never be torn down by a stray ParseError
// escaping the per-app path.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "analysis/decompiler.hpp"
#include "apk/apk.hpp"
#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "core/verdict_memo.hpp"
#include "support/blob.hpp"
#include "support/error.hpp"

namespace dydroid::core {

/// Everything one in-flight app analysis owns. The stages only read the
/// shared PipelineOptions; per-app mutable state lives here, and the one
/// table shared across apps (PerBinaryStage's verdict memo) locks itself,
/// which is what makes `DyDroid::analyze` const-callable and safe to run
/// from many threads.
struct AnalysisContext {
  // Inputs (fixed for the lifetime of the analysis).
  support::Blob apk;  // the subject APK's serialized bytes (refcounted view)
  std::uint64_t seed = 0;
  const PipelineOptions* options = nullptr;
  /// The app's surroundings (hosted payloads, companions); null = none.
  const os::Scenario* scenario = nullptr;

  // Cross-stage intermediates. The container is parsed ONCE per attempt
  // (`image`, by StaticStage); every later stage shares that parse. A
  // rewrite produces `run_image` (the only repack that serializes); when it
  // is invalid, DynamicStage installs `image` directly.
  std::optional<analysis::Ir> ir;  // StaticStage → Rewrite/Dynamic
  apk::ApkImage image;             // the one shared parse of `apk`
  apk::ApkImage run_image;         // rewritten image (invalid = run `image`)
  std::optional<RunResult> run;    // DynamicStage → PerBinaryStage

  // Output.
  AppReport report;
};

/// What a stage tells the pipeline driver to do next. A stage that resolves
/// the app's fate early (decompile failure, DCL-free app, rewriting
/// failure, install crash) fills in the report and returns kStop — that is
/// a *successful* short-circuit, not an error.
enum class StageAction { kContinue, kStop };

/// Stage status: kContinue/kStop on success, an error message for
/// unexpected internal failures. The pipeline converts errors into a
/// kCrash report instead of letting them unwind a worker thread.
using StageResult = support::Result<StageAction>;

/// One pipeline stage. Stages are stateless and const: every invocation
/// reads the shared options and writes only through the context.
class Stage {
 public:
  virtual ~Stage() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual StageResult run(AnalysisContext& ctx) const = 0;
};

/// Decompile → static DCL filter → obfuscation analysis (paper §IV-A).
/// Stops the pipeline for anti-decompilation apps and DCL-free apps.
class StaticStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return "static"; }
  [[nodiscard]] StageResult run(AnalysisContext& ctx) const override;
};

/// Inject WRITE_EXTERNAL_STORAGE if missing so the measurement log can be
/// recovered (paper §IV-B). Anti-repackaging traps crash the repacker here.
class RewriteStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return "rewrite"; }
  [[nodiscard]] StageResult run(AnalysisContext& ctx) const override;
};

/// Boot a fresh device, apply the scenario + runtime config, install and
/// fuzz the app with interception attached (paper §IV-C). Runs on
/// StaticStage's parse (`ir`, `image`) and fails without it.
class DynamicStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return "dynamic"; }
  [[nodiscard]] StageResult run(AnalysisContext& ctx) const override;
};

/// Per intercepted binary: remote provenance, malware scan, privacy
/// analysis of loaded DEX code (paper §V-D/E/F). Each payload's malware and
/// privacy verdicts are judged once per stage instance and then taken from
/// its memo, except while a support::FaultSession is installed: a verdict
/// then depends on the injected failures, so the memo is neither read nor
/// written.
class PerBinaryStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return "per-binary"; }
  [[nodiscard]] StageResult run(AnalysisContext& ctx) const override;

 private:
  mutable VerdictMemo verdicts_;  // locks itself; see core/verdict_memo.hpp
};

/// Code-injection vulnerability analysis over the observed events (§V-G).
class VulnStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return "vuln"; }
  [[nodiscard]] StageResult run(AnalysisContext& ctx) const override;
};

/// The canonical stage order (Figure 1).
std::vector<std::unique_ptr<const Stage>> default_stages();

}  // namespace dydroid::core
