#include "core/engine.hpp"

#include "support/log.hpp"

namespace dydroid::core {
namespace {

RunResult run_once(os::Device& device,
                   std::shared_ptr<const dex::DexFile> classes_dex,
                   const manifest::Manifest& manifest, support::Rng& rng,
                   const EngineConfig& config) {
  RunResult result;
  vm::Vm vm(device, manifest, config.limits);
  vm.load_app(std::move(classes_dex));
  CodeInterceptor interceptor(vm);
  result.monkey = monkey::run_monkey(vm, config.monkey, rng);
  // Moved, not copied. The app's report keeps the two event logs for the
  // rest of the corpus run, so they are handed over at their size.
  result.events = interceptor.take_events();
  result.events.shrink_to_fit();
  result.binaries = interceptor.take_binaries();
  result.tracker = interceptor.take_tracker();
  result.blocked_mutations = interceptor.blocked_mutations();
  result.vm_events = vm.take_events();
  result.vm_events.shrink_to_fit();
  return result;
}

}  // namespace

RunResult run_app(os::Device& device,
                  std::shared_ptr<const dex::DexFile> classes_dex,
                  const manifest::Manifest& manifest, support::Rng& rng,
                  const EngineConfig& config) {
  auto result = run_once(device, classes_dex, manifest, rng, config);
  if (result.monkey.outcome == monkey::Outcome::kCrash &&
      result.monkey.crash_message.find("storage full") != std::string::npos) {
    // Automatic recovery: clear the app's cache (odex staging and ad
    // payload caches dominate usage) and retry once.
    const auto sys = os::Principal::system();
    const auto cache = os::internal_storage_dir(manifest.package) + "/cache";
    for (const auto& path : device.vfs().list_dir(cache)) {
      (void)device.vfs().delete_file(sys, path);
    }
    support::log_info("engine", "storage full: cleared cache for " +
                                    manifest.package + ", retrying");
    result = run_once(device, std::move(classes_dex), manifest, rng, config);
    result.storage_recovered = true;
  }
  return result;
}

}  // namespace dydroid::core
