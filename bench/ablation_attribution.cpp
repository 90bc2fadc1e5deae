// Ablation 2 (DESIGN.md §5): call-site attribution rule.
//
// DyDroid attributes a DCL event to the FIRST non-framework frame of the
// stack trace (Fig. 2). The naive alternative — attribute to the OUTERMOST
// app frame (the component that handled the event) — misattributes every
// SDK-initiated load to the app developer. This ablation measures the
// misattribution rate over SDK-driven apps.
#include <cstdio>

#include "appgen/generator.hpp"
#include "core/interceptor.hpp"
#include "monkey/monkey.hpp"
#include "support/strings.hpp"

using namespace dydroid;

namespace {

/// Naive rule: bottom-most (outermost) non-framework frame.
std::string outermost_app_frame(const vm::StackTrace& trace) {
  for (auto it = trace.rbegin(); it != trace.rend(); ++it) {
    if (!vm::is_framework_class(it->class_name)) return it->class_name;
  }
  return "";
}

}  // namespace

int main() {
  std::printf("Ablation: stack-trace attribution rule (Fig. 2)\n\n");
  int events = 0;
  int agree = 0;
  int naive_says_own_actually_third = 0;
  support::Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    appgen::AppSpec spec;
    spec.package = "com.abl.attr" + std::to_string(i);
    spec.category = "Tools";
    spec.ad_sdk = (i % 3 != 2);
    spec.analytics_sdk = (i % 3 == 2);
    spec.own_dex_dcl = (i % 5 == 0);
    const auto app = appgen::build_app(spec, rng);

    os::Device device;
    app.scenario.apply(device);
    const auto apk = apk::ApkFile::deserialize(app.apk);
    (void)device.install(apk);
    const auto manifest = apk.read_manifest();
    vm::Vm vm(device, manifest);
    vm.load_app(std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));
    core::CodeInterceptor interceptor(vm);
    monkey::MonkeyConfig config;
    support::Rng mrng(1000 + static_cast<std::uint64_t>(i));
    (void)monkey::run_monkey(vm, config, mrng);

    for (const auto& event : interceptor.events()) {
      if (event.system_binary) continue;
      ++events;
      const auto naive = outermost_app_frame(event.trace);
      const auto naive_entity =
          core::classify_entity(naive, spec.package);
      if (naive_entity == event.entity) {
        ++agree;
      } else if (naive_entity == core::Entity::Own &&
                 event.entity == core::Entity::ThirdParty) {
        ++naive_says_own_actually_third;
      }
    }
  }

  std::printf("  DCL events observed:                    %d\n", events);
  std::printf("  rules agree:                            %d (%.1f%%)\n",
              agree, events ? 100.0 * agree / events : 0);
  std::printf("  naive rule misattributes SDK loads to\n");
  std::printf("  the developer:                          %d (%.1f%%)\n",
              naive_says_own_actually_third,
              events ? 100.0 * naive_says_own_actually_third / events : 0);
  std::printf(
      "\n  Takeaway: SDK loads are triggered from app lifecycle callbacks,\n"
      "  so the outermost-frame rule blames the developer for nearly every\n"
      "  third-party load; the innermost-non-framework rule (the paper's)\n"
      "  attributes them correctly.\n");
  return 0;
}
