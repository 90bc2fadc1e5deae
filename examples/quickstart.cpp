// Quickstart: the Figure-1 walk in ~100 lines.
//
// Builds a small app whose bundled ad SDK dynamically loads a dex payload,
// then runs the full DyDroid pipeline over it and prints every analysis
// result: static filter, obfuscation report, DCL events with stack-trace
// call sites, intercepted binaries, provenance, and privacy leaks.
#include <cstdio>

#include "appgen/generator.hpp"
#include "core/pipeline.hpp"

using namespace dydroid;

int main() {
  // 1. An app spec: a photo app bundling an ad SDK that loads code at
  //    runtime (the dominant real-world pattern per the paper).
  appgen::AppSpec spec;
  spec.package = "com.example.photoeditor";
  spec.category = "Photography";
  spec.ad_sdk = true;        // Google-Ads-like: copies a dex to cache,
                             // DexClassLoader-loads it, then deletes it
  spec.own_dex_dcl = true;   // the developer also loads a plugin
  spec.own_leaks = privacy::mask_of(privacy::DataType::Calendar);

  support::Rng rng(2024);
  const auto app = appgen::build_app(spec, rng);
  std::printf("built %s: %zu-byte APK\n", spec.package.c_str(),
              app.apk.size());

  // 2. Run the DyDroid pipeline (decompile -> filter -> obfuscation ->
  //    rewrite -> dynamic analysis -> per-binary analyses).
  //    The app's surroundings (servers, companion apps) ride on the request.
  const core::DyDroid pipeline;
  core::AnalysisRequest request;
  request.apk = app.apk;
  request.seed = 1;
  request.scenario_setup = &app.scenario;
  const auto report = pipeline.analyze(request);

  // 3. Results.
  std::printf("\n--- static phase ---\n");
  std::printf("static filter: dex DCL code = %s, native DCL code = %s\n",
              report.static_dcl.dex_dcl ? "yes" : "no",
              report.static_dcl.native_dcl ? "yes" : "no");
  std::printf("obfuscation: lexical=%d reflection=%d native=%d packed=%d\n",
              report.obfuscation.lexical, report.obfuscation.reflection,
              report.obfuscation.native_code,
              report.obfuscation.dex_encryption);

  std::printf("\n--- dynamic phase: %s ---\n",
              std::string(core::dynamic_status_name(report.status)).c_str());
  for (const auto& event : report.events) {
    std::printf("DCL event [%s] call site %s (%s)\n",
                std::string(core::code_kind_name(event.kind)).c_str(),
                event.call_site_class.c_str(),
                std::string(core::entity_name(event.entity)).c_str());
    for (const auto& path : event.paths) {
      std::printf("    loads %s\n", path.c_str());
    }
    std::printf("    stack: %s\n",
                vm::format_stack_trace(event.trace).c_str());
  }

  std::printf("\n--- intercepted binaries ---\n");
  for (const auto& binary : report.binaries) {
    std::printf("%s (%zu bytes) from %s — %s\n", binary.binary.path.c_str(),
                binary.binary.bytes.size(),
                binary.binary.call_site_class.c_str(),
                binary.origin_url ? ("REMOTE: " + *binary.origin_url).c_str()
                                  : "locally packed");
    for (const auto& leak : binary.privacy.leaks) {
      std::printf("    privacy leak: %s via %s in %s\n",
                  std::string(privacy::data_type_name(leak.type)).c_str(),
                  leak.sink_api.c_str(), leak.sink_class.c_str());
    }
  }

  std::printf("\n--- vulnerabilities ---\n%zu finding(s)\n",
              report.vulns.size());
  return 0;
}
