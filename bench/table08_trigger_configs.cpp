// Reproduces paper Table VIII: re-executing the malware-loading apps under
// four runtime-environment configurations and counting how many malicious
// files are still loaded — system time before release, airplane mode with
// WiFi re-enabled, airplane mode with WiFi off, and location service off.
#include "common.hpp"

using namespace dydroid;
using namespace dydroid::bench;

namespace {

/// Count malware files intercepted for one app under a config.
int malware_files(const appgen::GeneratedApp& app,
                  const malware::DroidNative* detector,
                  const core::RuntimeConfig& runtime, std::uint64_t seed) {
  const auto report = rerun_app(app, detector, runtime, seed);
  return static_cast<int>(report.malware_loaded().size());
}

}  // namespace

int main() {
  const auto detector = malware::paper_detector();
  const auto m = measure_corpus(&detector);
  print_title("Table VIII",
              "malicious code loaded under runtime configurations");

  // Flagged apps = those whose default run loaded detected malware. Keep
  // the corpus index so reruns use the app's own index-derived seed.
  std::vector<const MeasuredApp*> flagged;
  int baseline_files = 0;
  for (const auto& app : m.apps) {
    const auto hits = app.report.malware_loaded();
    if (hits.empty()) continue;
    flagged.push_back(&app);
    baseline_files += static_cast<int>(hits.size());
  }

  struct Config {
    const char* name;
    core::RuntimeConfig runtime;
    double paper_loaded;
  };
  core::RuntimeConfig before_release;
  before_release.time_ms = appgen::kReleaseTimeMs - 30LL * 86'400'000;
  core::RuntimeConfig airplane_wifi;
  airplane_wifi.airplane_mode = true;
  airplane_wifi.wifi_enabled = true;
  core::RuntimeConfig airplane_only;
  airplane_only.airplane_mode = true;
  airplane_only.wifi_enabled = false;
  core::RuntimeConfig location_off;
  location_off.location_enabled = false;

  const Config configs[] = {
      {"System time (before release)", before_release, 72},
      {"Airplane mode/WiFi ON", airplane_wifi, 56},
      {"Airplane mode/WiFi OFF", airplane_only, 53},
      {"Location OFF", location_off, 70},
  };

  std::printf("  baseline: %d malicious files over %zu apps"
              " (paper: 91 files / 87 apps)\n\n",
              baseline_files, flagged.size());
  std::printf("  %-32s %18s %18s\n", "Configuration", "measured loaded",
              "paper loaded");
  for (const auto& config : configs) {
    int loaded = 0;
    for (const auto* app : flagged) {
      // Seed derives from the app's corpus index, not from the iteration
      // order of the flagged subset, so an app's rerun is reproducible no
      // matter which other apps happened to be flagged.
      loaded += malware_files(*app->app, &detector, config.runtime,
                              driver::seed_for_app(0xAB1E, app->index));
    }
    const double mpct =
        baseline_files == 0 ? 0 : 100.0 * loaded / baseline_files;
    std::printf("  %-32s %8d (%5.1f%%) %10.0f (%5.1f%%)\n", config.name,
                loaded, mpct, config.paper_loaded,
                100.0 * config.paper_loaded / 91.0);
  }
  std::printf(
      "\n  Shape: every configuration hides some loads; airplane+WiFi-off"
      " hides the most.\n");
  print_footer();
  return 0;
}
