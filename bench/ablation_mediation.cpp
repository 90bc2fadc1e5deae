// Ablation 1 (DESIGN.md §5): the interception mutex.
//
// The paper's code interceptor makes File.delete()/renameTo() silently fail
// for queued binaries because ad SDKs delete their temporary dex right
// after loading it. This ablation runs the same ad apps WITH and WITHOUT
// the delete/rename block and compares how many loaded binaries remain
// recoverable from disk after the run — the naive "scan the filesystem
// afterwards" design loses every temporary payload.
#include <cstdio>

#include "appgen/generator.hpp"
#include "core/interceptor.hpp"
#include "monkey/monkey.hpp"

using namespace dydroid;

namespace {

struct Outcome {
  int loads = 0;
  int files_on_disk_after = 0;   // what post-hoc filesystem scanning sees
  int snapshots = 0;             // what live interception captured
};

Outcome run(const appgen::GeneratedApp& app, bool block_mutations,
            std::uint64_t seed) {
  Outcome out;
  os::Device device;
  app.scenario.apply(device);
  const auto apk = apk::ApkFile::deserialize(app.apk);
  (void)device.install(apk);
  const auto manifest = apk.read_manifest();
  vm::Vm vm(device, manifest);
  vm.load_app(std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));
  core::CodeInterceptor interceptor(vm);
  if (!block_mutations) {
    // Ablated framework: delete/rename behave normally.
    vm.instrumentation().allow_file_delete = [](const std::string&) {
      return true;
    };
    vm.instrumentation().allow_file_rename = [](const std::string&,
                                                const std::string&) {
      return true;
    };
  }
  monkey::MonkeyConfig config;
  support::Rng rng(seed);
  (void)monkey::run_monkey(vm, config, rng);

  for (const auto& event : interceptor.events()) {
    if (event.system_binary) continue;
    out.loads += static_cast<int>(event.paths.size());
    for (const auto& path : event.paths) {
      if (device.vfs().exists(path)) ++out.files_on_disk_after;
    }
  }
  out.snapshots = static_cast<int>(interceptor.binaries().size());
  return out;
}

}  // namespace

int main() {
  std::printf(
      "Ablation: interception mutex (block delete/rename of queued "
      "binaries)\n\n");
  constexpr int kApps = 40;
  Outcome with{}, without{};
  support::Rng rng(77);
  for (int i = 0; i < kApps; ++i) {
    appgen::AppSpec spec;
    spec.package = "com.abl.ads" + std::to_string(i);
    spec.category = "Tools";
    spec.ad_sdk = true;  // loads a TEMPORARY dex, then deletes it
    const auto app = appgen::build_app(spec, rng);
    const auto a = run(app, true, 100 + static_cast<std::uint64_t>(i));
    const auto b = run(app, false, 100 + static_cast<std::uint64_t>(i));
    with.loads += a.loads;
    with.files_on_disk_after += a.files_on_disk_after;
    with.snapshots += a.snapshots;
    without.loads += b.loads;
    without.files_on_disk_after += b.files_on_disk_after;
    without.snapshots += b.snapshots;
  }

  std::printf("  %-34s %10s %14s\n", "", "with mutex", "without mutex");
  std::printf("  %-34s %10d %14d\n", "DCL loads observed", with.loads,
              without.loads);
  std::printf("  %-34s %10d %14d\n", "payload files on disk after run",
              with.files_on_disk_after, without.files_on_disk_after);
  std::printf("  %-34s %10d %14d\n", "binaries captured live",
              with.snapshots, without.snapshots);
  std::printf(
      "\n  Takeaway: live snapshotting captures everything either way, but a\n"
      "  post-hoc filesystem sweep (many prior systems) recovers %d/%d files\n"
      "  without the mutex — the temporary ad payloads are gone.\n",
      without.files_on_disk_after, without.loads);
  return 0;
}
