// Test-only pipeline stage: runs a callback ahead of the canonical stages
// for the app a test targets, in whichever process analyzes that app — a
// pool worker under isolation. Tests use it to make one app hang, exhaust
// memory, die to a signal, take a measurable time or pull a stop flag.
//
// The stage never touches the report, so a hooked pipeline's reports equal
// the plain pipeline's. Its name is part of the stage list, hence of the
// config fingerprint: a test that resumes a journal or reopens a cache
// must use the same hooked pipeline for both runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "core/pipeline.hpp"
#include "core/stages.hpp"

namespace dydroid::test {

class HookStage final : public core::Stage {
 public:
  /// Run `hook` for the app analyzed at `seed`; nullopt targets every app.
  HookStage(std::optional<std::uint64_t> seed, std::function<void()> hook)
      : seed_(seed), hook_(std::move(hook)) {}

  [[nodiscard]] std::string_view name() const override { return "test-hook"; }
  [[nodiscard]] core::StageResult run(
      core::AnalysisContext& ctx) const override {
    if (!seed_.has_value() || *seed_ == ctx.seed) hook_();
    return core::StageAction::kContinue;
  }

 private:
  std::optional<std::uint64_t> seed_;
  std::function<void()> hook_;
};

/// default_stages() behind a HookStage, under `options`.
inline core::DyDroid hooked_pipeline(std::optional<std::uint64_t> seed,
                                     std::function<void()> hook,
                                     core::PipelineOptions options = {}) {
  auto stages = core::default_stages();
  stages.insert(stages.begin(),
                std::make_unique<HookStage>(seed, std::move(hook)));
  return core::DyDroid(std::move(options), std::move(stages));
}

}  // namespace dydroid::test
