// Ablation 3 (DESIGN.md §5): object-identity flow tracking (Table I) vs.
// path-string matching for download provenance.
//
// A naive tracker records "URL fetched -> file X written" by matching the
// path used at download time. Apps that rename or copy the downloaded file
// before loading it (common: download to a .tmp, then rename) break the
// path match; the Table-I flow graph follows File->File edges and survives.
#include <cstdio>

#include "core/interceptor.hpp"
#include "dex/builder.hpp"
#include "monkey/monkey.hpp"

using namespace dydroid;

namespace {

/// App that downloads to a temp path, RENAMES it, then loads the new path.
apk::ApkFile renaming_downloader(const std::string& pkg,
                                 const std::string& url) {
  manifest::Manifest man;
  man.package = pkg;
  man.add_permission(manifest::kInternet);
  man.add_permission(manifest::kWriteExternalStorage);
  man.components.push_back(manifest::Component{
      manifest::ComponentKind::Activity, pkg + ".Main", true});

  const auto tmp = "/data/data/" + pkg + "/cache/update.tmp";
  const auto final_path = "/data/data/" + pkg + "/files/update.dex";

  dex::DexBuilder b;
  auto m = b.cls(pkg + ".Main", "android.app.Activity").method("onCreate", 1);
  m.new_instance(1, "java.net.URL");
  m.const_str(2, url);
  m.invoke_virtual("java.net.URL", "<init>", {1, 2});
  m.invoke_virtual("java.net.URL", "openStream", {1});
  m.move_result(3);
  m.new_instance(4, "java.io.FileOutputStream");
  m.const_str(5, tmp);
  m.invoke_virtual("java.io.FileOutputStream", "<init>", {4, 5});
  m.label("copy");
  m.invoke_virtual("java.io.InputStream", "read", {3});
  m.move_result(6);
  m.if_eqz(6, "mv");
  m.invoke_virtual("java.io.OutputStream", "write", {4, 6});
  m.jump("copy");
  m.label("mv");
  m.new_instance(7, "java.io.File");
  m.invoke_virtual("java.io.File", "<init>", {7, 5});
  m.const_str(8, final_path);
  m.invoke_virtual("java.io.File", "renameTo", {7, 8});
  m.new_instance(9, "dalvik.system.DexClassLoader");
  m.const_str(10, "/data/data/" + pkg + "/files");
  m.invoke_virtual("dalvik.system.DexClassLoader", "<init>", {9, 8, 10});
  m.return_void();
  m.done();

  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(b.build());
  apk.sign("dev");
  return apk;
}

support::Bytes payload() {
  dex::DexBuilder b;
  b.cls("upd.Payload").method("run", 1).return_void().done();
  return b.build().serialize();
}

}  // namespace

int main() {
  std::printf(
      "Ablation: Table-I flow tracking vs. naive path matching\n\n");
  constexpr int kApps = 20;
  int loads = 0;
  int flow_attributed = 0;
  int path_attributed = 0;
  for (int i = 0; i < kApps; ++i) {
    const auto pkg = "com.abl.flow" + std::to_string(i);
    const auto url = "http://cdn.example.com/" + pkg + ".dex";
    const auto apk = renaming_downloader(pkg, url);

    os::Device device;
    device.network().host(url, support::Blob::take(payload()));
    (void)device.install(apk);
    const auto manifest = apk.read_manifest();
    vm::Vm vm(device, manifest);
    vm.load_app(std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));
    core::CodeInterceptor interceptor(vm);

    // Naive tracker: remember which paths were written while a network
    // stream was open — approximated as "paths written directly by the
    // download loop" (the .tmp file).
    std::vector<std::string> naive_download_paths;
    const auto prev_written = vm.instrumentation().on_file_written;
    vm.instrumentation().on_file_written =
        [&naive_download_paths, prev_written](const std::string& path) {
          if (path.ends_with(".tmp")) naive_download_paths.push_back(path);
          if (prev_written) prev_written(path);
        };

    monkey::MonkeyConfig config;
    support::Rng rng(42 + static_cast<std::uint64_t>(i));
    (void)monkey::run_monkey(vm, config, rng);

    for (const auto& event : interceptor.events()) {
      for (const auto& path : event.paths) {
        ++loads;
        if (interceptor.tracker().origin_url(path).has_value()) {
          ++flow_attributed;
        }
        for (const auto& dl : naive_download_paths) {
          if (dl == path) ++path_attributed;
        }
      }
    }
  }

  std::printf("  loads of renamed downloads:        %d\n", loads);
  std::printf("  flow graph finds the origin URL:   %d (%.0f%%)\n",
              flow_attributed, loads ? 100.0 * flow_attributed / loads : 0);
  std::printf("  naive path matching finds it:      %d (%.0f%%)\n",
              path_attributed, loads ? 100.0 * path_attributed / loads : 0);
  std::printf(
      "\n  Takeaway: renames/copies break path matching; the object-identity\n"
      "  flow graph of Table I (with File->File edges) survives them.\n");
  return 0;
}
