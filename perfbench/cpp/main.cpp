// perfbench: the DyDroid benchmark (perfbench/README.md).
//
//   perfbench --workload market|campaign|rescan [--seed N] [--seconds S]
//             [--trace 0|1] [--scale X] [--work-dir DIR]
//             [--golden FILE] [--commit ID]
//   perfbench --pin [--seed N] [--scale X] ...
//
// A run prints its metadata, the correctness-gate evidence and a metric
// table, then one JSON line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// --pin prints the golden-file lines (full and mixed corpus) for the seed.
// --scale exists for the smoke test; the benchmark runs at the default, the
// paper's full population.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "support/log.hpp"

namespace {

using perfbench::Workload;

/// Numbers from a sanitizer or unoptimized build are not benchmark numbers.
std::string build_refusal() {
#if !defined(__OPTIMIZE__)
  return "built without optimization";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#else
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (flags.find("-fsanitize") != std::string::npos) return "built with -fsanitize";
  if (type != "Release" && type != "RelWithDebInfo") return "build type '" + type + "'";
  return {};
#endif
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload market|campaign|rescan [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                 [--scale X] [--work-dir DIR] "
               "[--golden FILE] [--commit ID]\n"
               "       perfbench --pin [--seed N] [--scale X]\n",
               problem.c_str());
  std::exit(2);
}

struct Cli {
  perfbench::Plan plan;
  bool trace = false;
  bool pin = false;
  std::string commit = "unknown";
};

Cli parse(int argc, char** argv) {
  Cli cli;
  auto& o = cli.plan.options;
  o.jobs = nproc();
  o.work_dir = ".bench_build/perfbench-work";
  cli.plan.golden = "perfbench/golden.txt";
  std::optional<Workload> workload;
  std::uint64_t seed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--pin") {
      cli.pin = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = perfbench::parse_workload(value);
        if (!workload) usage("unknown workload '" + value + "'");
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cli.plan.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        cli.trace = value == "1";
      } else if (flag == "--scale") {
        o.scale = std::stod(value);
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else if (flag == "--golden") {
        cli.plan.golden = value;
      } else if (flag == "--commit") {
        cli.commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!cli.pin && !workload) usage("--workload is required");
  if (o.scale <= 0.0) usage("bad --scale");
  o.workload = workload.value_or(Workload::kMarket);
  // --seed picks the corpus: seed 0 is the paper's crawl month.
  o.corpus_seed = perfbench::kDefaultCorpusSeed + seed;
  o.work_dir /= perfbench::workload_name(o.workload);
  return cli;
}

int pin(const perfbench::Options& o) {
  const auto fixture = perfbench::set_up(o);
  const auto config = perfbench::runner_config(o, Workload::kMarket);
  for (const std::string_view kind : {"full", "mixed"}) {
    if (kind == "mixed") {
      perfbench::mix_in_successor(fixture->corpus, o);
      fixture->jobs = dydroid::driver::jobs_from_corpus(fixture->corpus);
    }
    const auto batch = perfbench::run_batch(*fixture->pipeline, *fixture, config);
    if (perfbench::count_failed(batch.result) != 0) {
      std::fprintf(stderr, "perfbench: apps failed while pinning\n");
      return 1;
    }
    std::printf("%s\n", perfbench::format_pin(kind, o.scale, o.corpus_seed,
                                              perfbench::tally(batch.result, o.jobs))
                            .c_str());
  }
  return 0;
}

void print(const Cli& cli, const perfbench::Report& report) {
  const auto& o = cli.plan.options;
  const std::string name(perfbench::workload_name(o.workload));
  std::printf("perfbench %s, %s run\n", name.c_str(),
              cli.trace ? "traced (per-layer metrics)" : "untraced (end-to-end metrics)");
  std::printf(
      "meta {\"workload\": %s, \"trace\": %d, \"nproc\": %zu, \"workers\": %zu, "
      "\"compiler\": %s, \"flags\": %s, \"build_type\": %s, \"commit\": %s, "
      "\"corpus_seed\": %llu, \"scale\": %s}\n",
      json_string(name).c_str(), cli.trace ? 1 : 0, nproc(), o.jobs,
      json_string(PERFBENCH_COMPILER).c_str(), json_string(PERFBENCH_CXX_FLAGS).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(cli.commit).c_str(),
      static_cast<unsigned long long>(o.corpus_seed), number(o.scale).c_str());
  for (const auto& line : report.notes) std::printf("  %s\n", line.c_str());
  for (const auto& line : report.gate_lines) std::printf("  gate: %s\n", line.c_str());
  for (const auto& line : report.mismatches) {
    std::printf("  gate MISMATCH: %s\n", line.c_str());
    std::fprintf(stderr, "perfbench: gate mismatch: %s\n", line.c_str());
  }
  const auto row = [](const std::string& metric, const std::string& value,
                      const std::string& unit, const std::string& note) {
    std::printf("  %-30s %22s %-9s %s\n", metric.c_str(), value.c_str(),
                unit.c_str(), note.c_str());
  };
  row("metric", "value", "unit", "");
  for (const auto& m : report.metrics) {
    row(m.name, m.absent ? "absent" : number(m.value), m.unit, m.note);
  }
  const double ratio = report.attempted == 0
                           ? 0.0
                           : static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted);
  row("failed_ratio", number(ratio), "ratio",
      std::to_string(report.failed) + " failed of " +
          std::to_string(report.attempted) + " attempted");

  std::string json = "{\"correct\": ";
  json += report.mismatches.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += json_string(m.name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse(argc, argv);
  if (const std::string refusal = build_refusal(); !refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", refusal.c_str());
    return 2;
  }
  dydroid::support::set_log_level(dydroid::support::LogLevel::Error);
  try {
    std::filesystem::create_directories(cli.plan.options.work_dir);
    if (cli.pin) return pin(cli.plan.options);
    const auto report = cli.trace ? perfbench::measure_layers(cli.plan)
                                  : perfbench::measure_end_to_end(cli.plan);
    print(cli, report);
    std::fflush(stdout);
    return report.mismatches.empty() && report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
