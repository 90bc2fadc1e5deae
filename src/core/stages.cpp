#include "core/stages.hpp"

#include "analysis/rewriter.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace dydroid::core {

// ---- StaticStage -----------------------------------------------------------

StageResult StaticStage::run(AnalysisContext& ctx) const {
  auto ir = [&] {
    // Nested "phase" span: decompilation dominates the static stage; the
    // trace shows it as a child of the enclosing "stage"/"static" span.
    // This is the pipeline's single container parse: the resulting image
    // is shared by every later stage (rewrite, install, VM).
    TRACE_SPAN("phase", "static.decompile");
    try {
      ctx.image = apk::ApkImage::parse(ctx.apk, apk::ParseMode::kLenient);
    } catch (const support::ParseError& e) {
      return support::Result<analysis::Ir>::failure(
          std::string("decompile: ") + e.what());
    }
    return analysis::decompile(ctx.image);
  }();
  if (!ir.ok()) {
    ctx.report.decompile_failed = true;
    ctx.report.obfuscation.anti_decompilation = true;
    return StageAction::kStop;
  }
  ctx.ir = std::move(ir).take();
  const auto& decompiled = *ctx.ir;
  ctx.report.package = decompiled.manifest.package;
  ctx.report.min_sdk = decompiled.manifest.min_sdk;
  {
    TRACE_SPAN("phase", "static.scan");
    ctx.report.obfuscation = obfuscation::analyze_obfuscation(decompiled);
    if (decompiled.classes_dex != nullptr) {
      ctx.report.static_dcl = scan_dcl_apis(*decompiled.classes_dex);
    }
  }

  if (!ctx.report.static_dcl.any()) {
    return StageAction::kStop;  // DCL-free apps are not exercised (paper §V-A)
  }
  return StageAction::kContinue;
}

// ---- RewriteStage ----------------------------------------------------------

StageResult RewriteStage::run(AnalysisContext& ctx) const {
  // The measurement log lives on external storage; inject the permission if
  // missing. Anti-repackaging apps crash the (strict) repacker here.
  if (ctx.ir->manifest.has_permission(manifest::kWriteExternalStorage)) {
    return StageAction::kContinue;
  }
  auto result = analysis::rewrite_with_permission(
      ctx.image, manifest::kWriteExternalStorage);
  if (!result.ok()) {
    ctx.report.status = DynamicStatus::kRewritingFailure;
    ctx.report.crash_message = result.error();
    return StageAction::kStop;
  }
  ctx.run_image = std::move(result).take();
  return StageAction::kContinue;
}

// ---- DynamicStage ----------------------------------------------------------

StageResult DynamicStage::run(AnalysisContext& ctx) const {
  // The app runs on StaticStage's one parse: its decompiled classes.dex and
  // the image it installs. A stage list without StaticStage has neither.
  if (!ctx.ir.has_value() || ctx.ir->classes_dex == nullptr ||
      !ctx.image.valid()) {
    return StageResult::failure("dynamic: no parsed app (run StaticStage)");
  }
  std::optional<os::Device> device;
  {
    TRACE_SPAN("phase", "dynamic.boot");
    device.emplace(ctx.options->device);
    if (ctx.scenario != nullptr) ctx.scenario->apply(*device);
    ctx.options->runtime.apply(device->services());
  }

  // The image to install: the rewritten one if RewriteStage produced it,
  // otherwise StaticStage's shared parse.
  const apk::ApkImage& img = ctx.run_image.valid() ? ctx.run_image : ctx.image;
  manifest::Manifest man;
  {
    TRACE_SPAN("phase", "dynamic.install");
    try {
      man = img.file().read_manifest();
    } catch (const support::ParseError& e) {
      ctx.report.status = DynamicStatus::kCrash;
      ctx.report.crash_message = e.what();
      return StageAction::kStop;
    }
    if (const auto installed = device->install(img); !installed) {
      ctx.report.status = DynamicStatus::kCrash;
      ctx.report.crash_message = installed.error();
      return StageAction::kStop;
    }
  }

  support::Rng rng(ctx.seed);
  {
    TRACE_SPAN("phase", "dynamic.fuzz");
    ctx.run =
        run_app(*device, ctx.ir->classes_dex, man, rng, ctx.options->engine);
  }
  auto& run = *ctx.run;
  ctx.report.storage_recovered = run.storage_recovered;
  ctx.report.crash_message = run.monkey.crash_message;
  switch (run.monkey.outcome) {
    case monkey::Outcome::kNoActivity:
      ctx.report.status = DynamicStatus::kNoActivity;
      break;
    case monkey::Outcome::kCrash:
      ctx.report.status = DynamicStatus::kCrash;
      break;
    case monkey::Outcome::kExercised:
      ctx.report.status = DynamicStatus::kExercised;
      break;
  }
  ctx.report.events = std::move(run.events);
  ctx.report.vm_events = std::move(run.vm_events);
  return StageAction::kContinue;
}

// ---- PerBinaryStage --------------------------------------------------------

namespace {

/// Malware scan and, for DEX payloads, privacy analysis of one payload: a
/// pure function of the detector, the kind and the bytes.
BinaryVerdict judge(const malware::DroidNative* detector,
                    const InterceptedBinary& binary) {
  const std::span<const std::uint8_t> bytes = binary.bytes.span();
  BinaryVerdict verdict;
  if (detector != nullptr) verdict.malware = detector->scan(bytes);
  if (binary.kind != CodeKind::Dex) return verdict;
  try {
    if (dex::looks_like_dex(bytes)) {
      verdict.privacy =
          privacy::analyze_privacy(dex::DexFile::deserialize(bytes));
    } else if (apk::looks_like_apk(bytes)) {
      const auto pkg = apk::ApkFile::deserialize(bytes);
      if (auto inner = pkg.read_classes_dex()) {
        verdict.privacy = privacy::analyze_privacy(*inner);
      }
    }
  } catch (const support::ParseError& e) {
    support::log_warn("pipeline",
                      std::string("privacy: unparsable binary: ") + e.what());
  }
  return verdict;
}

}  // namespace

StageResult PerBinaryStage::run(AnalysisContext& ctx) const {
  if (!ctx.run.has_value()) return StageAction::kContinue;
  auto& run = *ctx.run;
  // DyDroid::analyze installs the app's fault session before any stage runs.
  const bool use_memo = support::current_fault_session() == nullptr;
  for (auto& binary : run.binaries) {
    BinaryReport br;
    br.origin_url = run.tracker.origin_url(binary.path);
    const VerdictKey key{ctx.options->detector, binary.kind, binary.digest};
    std::optional<BinaryVerdict> verdict;
    if (use_memo) verdict = verdicts_.find(key);
    if (!verdict.has_value()) {
      verdict = judge(ctx.options->detector, binary);
      if (use_memo) verdicts_.insert(key, *verdict);
    }
    br.malware = std::move(verdict->malware);
    br.privacy = std::move(verdict->privacy);
    br.binary = std::move(binary);
    ctx.report.binaries.push_back(std::move(br));
  }
  return StageAction::kContinue;
}

// ---- VulnStage -------------------------------------------------------------

StageResult VulnStage::run(AnalysisContext& ctx) const {
  ctx.report.vulns = analyze_vulnerabilities(ctx.report.events,
                                             ctx.report.package,
                                             ctx.report.min_sdk);
  return StageAction::kContinue;
}

std::vector<std::unique_ptr<const Stage>> default_stages() {
  std::vector<std::unique_ptr<const Stage>> stages;
  stages.push_back(std::make_unique<StaticStage>());
  stages.push_back(std::make_unique<RewriteStage>());
  stages.push_back(std::make_unique<DynamicStage>());
  stages.push_back(std::make_unique<PerBinaryStage>());
  stages.push_back(std::make_unique<VulnStage>());
  return stages;
}

}  // namespace dydroid::core
