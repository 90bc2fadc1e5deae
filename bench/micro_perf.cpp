// Micro-benchmarks (google-benchmark) for the per-app costs that dominate
// the 46K-app measurement: interpretation, container (de)serialization,
// decompilation, SHA-256, ACFG lifting + matching, taint analysis, corpus
// build and the end-to-end pipeline — plus two corpus cases perfbench does
// not cover: serial vs parallel CorpusRunner throughput and the
// shard-journal merge.
// Corpus-level performance (thread, pool + journal, primed cache; end to
// end and per layer) is measured by perfbench (perfbench/README.md).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/decompiler.hpp"
#include "appgen/corpus.hpp"
#include "appgen/generator.hpp"
#include "core/pipeline.hpp"
#include "dex/builder.hpp"
#include "dex/disassembler.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/shard_merge.hpp"
#include "malware/droidnative.hpp"
#include "malware/families.hpp"
#include "obfuscation/packer.hpp"
#include "privacy/flowdroid.hpp"
#include "support/hash.hpp"
#include "support/hash_kernels.hpp"
#include "support/log.hpp"

using namespace dydroid;

namespace {

appgen::GeneratedApp make_ad_app() {
  appgen::AppSpec spec;
  spec.package = "com.bench.app";
  spec.category = "Tools";
  spec.ad_sdk = true;
  support::Rng rng(1);
  return appgen::build_app(spec, rng);
}

void BM_InterpreterArithLoop(benchmark::State& state) {
  dex::DexBuilder b;
  auto m = b.cls("bench.Calc", "android.app.Activity").static_method("sum", 1);
  m.const_int(1, 0);
  m.const_int(2, 1);
  m.label("top");
  m.if_eqz(0, "end");
  m.add(1, 1, 0);
  m.sub(0, 0, 2);
  m.jump("top");
  m.label("end");
  m.ret(1);
  m.done();
  manifest::Manifest man;
  man.package = "bench";
  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(b.build());
  os::Device device;
  vm::Vm vm(device, man);
  vm.load_app(std::make_shared<const dex::DexFile>(*apk.read_classes_dex()));
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vm.call_static("bench.Calc", "sum", std::array{vm::Value(n)}));
  }
  state.SetItemsProcessed(state.iterations() * n * 4);  // ~4 ops per round
}
BENCHMARK(BM_InterpreterArithLoop)->Arg(1000)->Arg(10000);

void BM_ApkSerializeRoundTrip(benchmark::State& state) {
  const auto app = make_ad_app();
  for (auto _ : state) {
    const auto apk = apk::ApkFile::deserialize(app.apk);
    benchmark::DoNotOptimize(apk.serialize());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(app.apk.size()));
}
BENCHMARK(BM_ApkSerializeRoundTrip);

// Parse-once container handling (docs/FORMATS.md, "Buffer ownership &
// zero-copy views"). Arg 0 replays the legacy per-stage churn — a lenient
// parse for decompilation, a strict re-parse for rewrite validation plus a
// repack serialize, and a third parse for the install. Arg 1 is the current
// pipeline shape: one ApkImage::parse whose entries are zero-copy slices,
// a CRC-index walk standing in for strict validation, and a Blob view for
// the install. The delta is the redundant container work removed per app.
void BM_ParseOnce(benchmark::State& state) {
  const auto app = make_ad_app();
  const bool legacy = state.range(0) == 0;
  for (auto _ : state) {
    if (legacy) {
      const auto decompiled = apk::ApkFile::deserialize(app.apk);
      const auto validated =
          apk::ApkFile::deserialize(app.apk, apk::ParseMode::kStrict);
      benchmark::DoNotOptimize(validated.serialize());  // repack copy
      benchmark::DoNotOptimize(apk::ApkFile::deserialize(app.apk));
      benchmark::DoNotOptimize(decompiled.entry_names());
    } else {
      const auto image = apk::ApkImage::parse(app.apk);
      benchmark::DoNotOptimize(image.file().first_crc_mismatch());
      benchmark::DoNotOptimize(image.bytes().span());
      benchmark::DoNotOptimize(image.file().entry_names());
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(app.apk.size()));
  state.SetLabel(legacy ? "reparse-per-stage" : "parse-once");
}
BENCHMARK(BM_ParseOnce)->Arg(0)->Arg(1);

// SHA-256, the content identity behind every result-cache key and the
// dedup table (docs/CACHE.md §1): 2 KiB is a typical package, 64 KiB a
// large payload. Reports the selected kernel's MB/s.
void BM_Sha256(benchmark::State& state) {
  support::Bytes data(static_cast<std::size_t>(state.range(0)));
  support::Rng rng(3);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(2048)->Arg(65536);

// CRC-32, the check on every journal, cache-store and RPC frame
// (docs/CHECKPOINT.md §1): 2 KiB is a few cache records, 64 KiB a large
// frame. BM_Crc32 reports the selected kernel's MB/s, BM_Crc32Portable the
// slicing-by-8 loop's on the same bytes.
support::Bytes random_bytes(std::int64_t size) {
  support::Bytes data(static_cast<std::size_t>(size));
  support::Rng rng(5);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.next());
  return data;
}

void BM_Crc32(benchmark::State& state) {
  const support::Bytes data = random_bytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(2048)->Arg(65536);

void BM_Crc32Portable(benchmark::State& state) {
  const support::Bytes data = random_bytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::crc32_detail::update_portable(
        0xffffffffu, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Portable)->Arg(2048)->Arg(65536);

void BM_Decompile(benchmark::State& state) {
  const auto app = make_ad_app();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::decompile(app.apk));
  }
}
BENCHMARK(BM_Decompile);

// The two decoders under every decompile, each reading the package's entry
// in place: classes.dex through support::ByteReader, and the manifest text.
void BM_DexDeserialize(benchmark::State& state) {
  const auto apk = apk::ApkFile::deserialize(make_ad_app().apk);
  const auto dex = *apk.get(apk::kClassesDexEntry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dex::DexFile::deserialize(dex));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(dex.size()));
}
BENCHMARK(BM_DexDeserialize);

void BM_ManifestFromText(benchmark::State& state) {
  const auto apk = apk::ApkFile::deserialize(make_ad_app().apk);
  const auto text = *apk.get(apk::kManifestEntry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        manifest::Manifest::from_text(support::as_chars(text)));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ManifestFromText);

void BM_PackApp(benchmark::State& state) {
  const auto app = make_ad_app();
  const auto apk = apk::ApkFile::deserialize(app.apk);
  for (auto _ : state) {
    benchmark::DoNotOptimize(obfuscation::pack(apk, {}));
  }
}
BENCHMARK(BM_PackApp);

void BM_AcfgLift(benchmark::State& state) {
  support::Rng rng(2);
  const auto payload = malware::generate_payload(
      malware::Family::SwissCodeMonkeys, {}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(malware::DroidNative::lift(payload));
  }
}
BENCHMARK(BM_AcfgLift);

void BM_AcfgSimilarity(benchmark::State& state) {
  support::Rng rng(3);
  const auto a = *malware::DroidNative::lift(malware::generate_payload(
      malware::Family::SwissCodeMonkeys, {}, rng));
  const auto b = *malware::DroidNative::lift(malware::generate_payload(
      malware::Family::SwissCodeMonkeys, {}, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(malware::acfg_similarity(a, b));
  }
}
BENCHMARK(BM_AcfgSimilarity);

void BM_DetectorScan(benchmark::State& state) {
  malware::DroidNative detector(0.9);
  support::Rng rng(4);
  for (int f = 0; f < malware::kNumFamilies; ++f) {
    for (const auto& s :
         malware::generate_training_samples(malware::family_at(f),
                                            static_cast<int>(state.range(0)),
                                            rng)) {
      detector.train(malware::family_name(malware::family_at(f)), s);
    }
  }
  const auto payload =
      malware::generate_payload(malware::Family::ChathookPtrace, {}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.scan(payload));
  }
}
BENCHMARK(BM_DetectorScan)->Arg(2)->Arg(8);

void BM_PrivacyAnalysis(benchmark::State& state) {
  // The heaviest realistic payload: every data type leaked.
  privacy::TaintMask mask = 0;
  for (int i = 0; i < privacy::kNumDataTypes; ++i) {
    mask |= privacy::mask_of(static_cast<privacy::DataType>(i));
  }
  appgen::AppSpec spec;
  spec.package = "com.bench.leaky";
  spec.category = "Tools";
  spec.analytics_sdk = true;
  spec.sdk_leaks = mask;
  support::Rng rng(5);
  const auto app = appgen::build_app(spec, rng);
  const auto apk = apk::ApkFile::deserialize(app.apk);
  const auto payload = *apk.get("assets/tracker.bin");
  const auto dexfile = dex::DexFile::deserialize(payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(privacy::analyze_privacy(dexfile));
  }
}
BENCHMARK(BM_PrivacyAnalysis);

void BM_BuildApp(benchmark::State& state) {
  appgen::AppSpec spec;
  spec.package = "com.bench.gen";
  spec.category = "Tools";
  spec.ad_sdk = true;
  spec.analytics_sdk = true;
  spec.own_native_dcl = true;
  support::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(appgen::build_app(spec, rng));
  }
}
BENCHMARK(BM_BuildApp);

void BM_FullPipelinePerApp(benchmark::State& state) {
  const auto app = make_ad_app();
  std::uint64_t seed = 0;
  core::AnalysisRequest request;
  request.apk = app.apk;
  request.scenario_setup = &app.scenario;
  for (auto _ : state) {
    const core::DyDroid pipeline{core::PipelineOptions{}};
    request.seed = seed++;
    benchmark::DoNotOptimize(pipeline.analyze(request));
  }
}
BENCHMARK(BM_FullPipelinePerApp);

void BM_MonkeySession(benchmark::State& state) {
  const auto app = make_ad_app();
  const auto apk = apk::ApkFile::deserialize(app.apk);
  const auto man = apk.read_manifest();
  const auto classes_dex =
      std::make_shared<const dex::DexFile>(*apk.read_classes_dex());
  os::Device device;
  (void)device.install(apk);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    support::Rng rng(seed++);
    benchmark::DoNotOptimize(core::run_app(device, classes_dex, man, rng));
  }
}
BENCHMARK(BM_MonkeySession);

// ---- Corpus throughput (apps/sec): serial vs. parallel driver -------------

void BM_CorpusThroughput(benchmark::State& state) {
  support::set_log_level(support::LogLevel::Error);
  appgen::CorpusConfig config;
  config.scale = 0.02;
  const auto corpus = appgen::generate_corpus(config);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  driver::RunnerConfig runner_config;
  runner_config.jobs = static_cast<std::size_t>(state.range(0));
  const driver::CorpusRunner runner(pipeline, runner_config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(corpus));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(corpus.apps.size()));
  state.SetLabel("apps/s; jobs=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CorpusThroughput)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Sharded corpus merge (docs/SHARDING.md): Arg shard journals are produced
// once outside the timed region (N shard runs, each journaling its residue
// class); the timed region is merge_shard_journals folding them into one
// sealed journal. The merge is pure journal read/validate/write — its cost
// must stay negligible next to the analysis the shards already did.
void BM_ShardMerge(benchmark::State& state) {
  support::set_log_level(support::LogLevel::Error);
  appgen::CorpusConfig config;
  config.scale = 0.02;
  const auto corpus = appgen::generate_corpus(config);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::string> shard_paths;
  for (std::uint32_t i = 0; i < shards; ++i) {
    const std::string path = "bench_shard_" + std::to_string(::getpid()) +
                             "_" + std::to_string(i) + ".jrnl";
    driver::RunnerConfig shard_config;
    shard_config.jobs = 1;
    shard_config.journal_path = path;
    shard_config.shard_index = i;
    shard_config.shard_count = shards;
    benchmark::DoNotOptimize(
        driver::CorpusRunner(pipeline, shard_config).run(corpus));
    shard_paths.push_back(path);
  }
  const std::string merged_path =
      "bench_shard_merged_" + std::to_string(::getpid()) + ".jrnl";
  for (auto _ : state) {
    auto merged = driver::merge_shard_journals(merged_path, shard_paths);
    if (!merged.ok()) state.SkipWithError(merged.error().c_str());
    benchmark::DoNotOptimize(merged);
  }
  for (const auto& path : shard_paths) std::remove(path.c_str());
  std::remove(merged_path.c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(corpus.apps.size()));
  state.SetLabel("shards=" + std::to_string(shards));
}
BENCHMARK(BM_ShardMerge)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
