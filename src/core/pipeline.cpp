#include "core/pipeline.hpp"

#include "core/stages.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace dydroid::core {

void RuntimeConfig::apply(os::SystemServices& services) const {
  if (time_ms.has_value()) services.set_time_ms(*time_ms);
  services.set_airplane_mode(airplane_mode);
  services.set_wifi_enabled(wifi_enabled);
  services.set_location_enabled(location_enabled);
}

std::string_view dynamic_status_name(DynamicStatus status) {
  switch (status) {
    case DynamicStatus::kNotRun: return "not-run";
    case DynamicStatus::kRewritingFailure: return "rewriting-failure";
    case DynamicStatus::kNoActivity: return "no-activity";
    case DynamicStatus::kCrash: return "crash";
    case DynamicStatus::kExercised: return "exercised";
  }
  return "?";
}

bool AppReport::intercepted(CodeKind kind) const {
  for (const auto& b : binaries) {
    if (b.binary.kind == kind) return true;
  }
  return false;
}

AppReport::EntityUse AppReport::entity_use(CodeKind kind) const {
  EntityUse use;
  for (const auto& event : events) {
    if (event.kind != kind || event.system_binary) continue;
    if (event.entity == Entity::Own) {
      use.own = true;
    } else {
      use.third_party = true;
    }
  }
  return use;
}

std::vector<const BinaryReport*> AppReport::remote_loaded() const {
  std::vector<const BinaryReport*> out;
  for (const auto& b : binaries) {
    if (b.origin_url.has_value()) out.push_back(&b);
  }
  return out;
}

std::vector<const BinaryReport*> AppReport::malware_loaded() const {
  std::vector<const BinaryReport*> out;
  for (const auto& b : binaries) {
    if (b.malware.has_value()) out.push_back(&b);
  }
  return out;
}

DyDroid::DyDroid(PipelineOptions options)
    : options_(std::move(options)), stages_(default_stages()) {}

DyDroid::DyDroid(PipelineOptions options,
                 std::vector<std::unique_ptr<const Stage>> stages)
    : options_(std::move(options)), stages_(std::move(stages)) {}

DyDroid::~DyDroid() = default;

std::vector<std::string_view> DyDroid::stage_names() const {
  std::vector<std::string_view> names;
  names.reserve(stages_.size());
  for (const auto& stage : stages_) names.push_back(stage->name());
  return names;
}

namespace {

/// Run one stage, converting any escaping exception into a stage failure.
/// This is the no-exceptions boundary the corpus worker threads rely on.
/// Each invocation opens exactly one "stage"-category span — the unit of
/// the per-(app, stage, attempt) accounting in docs/OBSERVABILITY.md.
StageResult run_stage_guarded(const Stage& stage, AnalysisContext& ctx) {
  TRACE_SPAN("stage", stage.name());
  try {
    return stage.run(ctx);
  } catch (const std::exception& e) {
    return StageResult::failure(std::string(stage.name()) + ": " + e.what());
  } catch (...) {
    return StageResult::failure(std::string(stage.name()) +
                                ": unknown exception");
  }
}

}  // namespace

AppReport DyDroid::analyze(support::Blob apk, std::uint64_t seed) const {
  AnalysisRequest request;
  request.apk = std::move(apk);
  request.seed = seed;
  return analyze(request);
}

AppReport DyDroid::analyze(std::span<const std::uint8_t> apk_bytes,
                           std::uint64_t seed) const {
  return analyze(support::Blob::copy_of(apk_bytes), seed);
}

AppReport DyDroid::analyze(const AnalysisRequest& request) const {
  AnalysisContext ctx;
  ctx.apk = request.apk;
  ctx.seed = request.seed;
  ctx.options = &options_;
  ctx.scenario = request.scenario_setup;

  // Install the per-app fault session for this thread (docs/FAULTS.md):
  // decisions derive from (seed, attempt), so an injected failure is
  // reproducible from the app's corpus seed under any worker count. When no
  // plan is configured the ambient session is left untouched, so callers
  // (tests) may install their own scope around analyze().
  std::optional<support::FaultSession> fault_session;
  if (options_.faults != nullptr && !options_.faults->empty()) {
    fault_session.emplace(
        *options_.faults,
        support::fault_session_seed(request.seed, request.attempt));
  }
  const support::FaultScope fault_scope(
      fault_session.has_value() ? &*fault_session
                                : support::current_fault_session());

  for (const auto& stage : stages_) {
    const StageResult result = run_stage_guarded(*stage, ctx);
    if (!result.ok()) {
      // Unexpected internal failure: record it as a per-app crash outcome
      // so the batch keeps going (a worker thread never unwinds).
      ctx.report.status = DynamicStatus::kCrash;
      ctx.report.crash_message = result.error();
      support::log_warn("pipeline", "stage failed: " + result.error());
      break;
    }
    if (result.value() == StageAction::kStop) break;
  }
  return std::move(ctx.report);
}

}  // namespace dydroid::core
