// The correctness gate: report digests, pinned tallies, the direct-path
// sample and the failure count.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "core/report_json.hpp"
#include "perfbench.hpp"
#include "support/hash.hpp"

namespace perfbench {

namespace {

std::string counts_line(const Tally& t) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%zu %zu %zu %zu %zu %zu %zu %zu %zu", t.apps,
                t.not_run, t.rewriting_failure, t.no_activity, t.crashed,
                t.exercised, t.intercepted, t.malware, t.vulnerable);
  return buf;
}

}  // namespace

Tally tally(const dd::driver::CorpusResult& result, std::size_t threads) {
  const auto& outcomes = result.outcomes;
  std::vector<dd::support::Sha256Digest> digests(outcomes.size());
  {
    // Rendering and hashing ~59k reports is most of the gate's cost, so
    // each report is hashed on its own, in parallel, and the corpus digest
    // is the hash of those hashes in corpus order.
    constexpr std::size_t kChunk = 256;
    std::atomic<std::size_t> next{0};
    const auto hash_reports = [&] {
      for (;;) {
        const std::size_t begin = next.fetch_add(kChunk);
        if (begin >= outcomes.size()) return;
        const std::size_t end = std::min(begin + kChunk, outcomes.size());
        for (std::size_t i = begin; i < end; ++i) {
          digests[i] =
              dd::support::sha256(dd::core::report_to_json(outcomes[i].report));
        }
      }
    };
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t) {
      pool.emplace_back(hash_reports);
    }
  }
  dd::support::Sha256 corpus;
  for (const auto& d : digests) corpus.update(std::span<const std::uint8_t>(d.bytes));

  const auto& s = result.stats;
  Tally t;
  t.digest = corpus.digest().hex();
  t.apps = s.apps;
  t.not_run = s.not_run;
  t.rewriting_failure = s.rewriting_failure;
  t.no_activity = s.no_activity;
  t.crashed = s.crashed;
  t.exercised = s.exercised;
  t.intercepted = s.intercepted;
  t.malware = s.malware_carriers;
  t.vulnerable = s.vulnerable;
  return t;
}

std::vector<std::string> compare_tallies(const Tally& expected,
                                         const Tally& actual) {
  std::vector<std::string> diffs;
  if (expected.digest != actual.digest) {
    diffs.push_back("report digest: pinned " + expected.digest + ", got " +
                    actual.digest);
  }
  const struct {
    const char* name;
    std::size_t Tally::*field;
  } kCounts[] = {{"apps", &Tally::apps},
                 {"not-run", &Tally::not_run},
                 {"rewriting-failure", &Tally::rewriting_failure},
                 {"no-activity", &Tally::no_activity},
                 {"crashed", &Tally::crashed},
                 {"exercised", &Tally::exercised},
                 {"intercepted", &Tally::intercepted},
                 {"malware", &Tally::malware},
                 {"vulnerable", &Tally::vulnerable}};
  for (const auto& c : kCounts) {
    if (expected.*c.field != actual.*c.field) {
      diffs.push_back(std::string(c.name) + ": pinned " +
                      std::to_string(expected.*c.field) + ", got " +
                      std::to_string(actual.*c.field));
    }
  }
  return diffs;
}

std::string_view corpus_kind(Workload workload) {
  return workload == Workload::kRescan ? "mixed" : "full";
}

std::string format_pin(std::string_view kind, double scale,
                       std::uint64_t corpus_seed, const Tally& tally) {
  char head[96];
  std::snprintf(head, sizeof head, "%.*s %g %llu ",
                static_cast<int>(kind.size()), kind.data(), scale,
                static_cast<unsigned long long>(corpus_seed));
  return head + tally.digest + " " + counts_line(tally);
}

std::optional<Tally> find_pin(const std::filesystem::path& golden,
                              std::string_view kind, double scale,
                              std::uint64_t corpus_seed) {
  std::ifstream in(golden);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string pin_kind;
    double pin_scale = 0.0;
    std::uint64_t pin_seed = 0;
    Tally t;
    if (!(fields >> pin_kind >> pin_scale >> pin_seed >> t.digest >> t.apps >>
          t.not_run >> t.rewriting_failure >> t.no_activity >> t.crashed >>
          t.exercised >> t.intercepted >> t.malware >> t.vulnerable)) {
      continue;
    }
    if (pin_kind == kind && pin_seed == corpus_seed &&
        std::fabs(pin_scale - scale) < 1e-12) {
      return t;
    }
  }
  return std::nullopt;
}

std::size_t count_failed(const dd::driver::CorpusResult& result) {
  std::size_t failed = result.cache_write_failures;
  for (const auto& o : result.outcomes) {
    if (!o.completed || o.sandbox_fate != dd::driver::SandboxFate::kNone ||
        o.quarantined || o.timed_out) {
      ++failed;
    }
  }
  return failed;
}

std::vector<double> app_wall_ms(const dd::driver::CorpusResult& result) {
  std::vector<double> walls;
  walls.reserve(result.outcomes.size());
  for (const auto& o : result.outcomes) {
    walls.push_back(o.completed && !o.cache_hit ? o.wall_ms
                                                : std::numeric_limits<double>::quiet_NaN());
  }
  return walls;
}

std::vector<double> latency_samples(const std::vector<std::vector<double>>& batches) {
  std::vector<double> samples;
  if (batches.empty()) return samples;
  const std::size_t apps = batches.front().size();
  samples.reserve(apps);
  std::vector<double> walls;
  for (std::size_t i = 0; i < apps; ++i) {
    walls.clear();
    for (const auto& batch : batches) {
      if (i < batch.size() && !std::isnan(batch[i])) walls.push_back(batch[i]);
    }
    if (!walls.empty()) samples.push_back(median(walls));
  }
  return samples;
}

std::vector<std::string> direct_path_mismatches(
    const Fixture& fixture, const dd::driver::CorpusResult& result,
    std::size_t samples) {
  std::vector<std::string> mismatches;
  const std::size_t n = result.outcomes.size();
  const std::size_t stride = std::max<std::size_t>(1, n / std::max<std::size_t>(samples, 1));
  for (std::size_t i = 0; i < n; i += stride) {
    const auto& job = fixture.jobs[i];
    dd::core::AnalysisRequest request;
    request.apk = job.apk;
    request.seed = dd::driver::seed_for_app(kAppSeedBase, i);
    request.scenario_setup = job.scenario ? &job.scenario : nullptr;
    const auto direct = fixture.pipeline->analyze(request);
    if (dd::core::report_to_json(direct) !=
        dd::core::report_to_json(result.outcomes[i].report)) {
      mismatches.push_back("app " + std::to_string(i) + " (" + direct.package +
                           "): report differs from a direct core::DyDroid "
                           "analysis");
    }
  }
  return mismatches;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

GateResult gate_batch(const Plan& plan, const Fixture& fixture,
                      const Batch& batch) {
  const Options& o = plan.options;
  const auto& result = batch.result;
  GateResult gate;
  gate.tally = tally(result, o.jobs);
  gate.attempted = result.outcomes.size();
  gate.failed = count_failed(result);
  const Tally& t = gate.tally;

  const std::string_view kind = corpus_kind(o.workload);
  if (const auto pin = find_pin(plan.golden, kind, o.scale, o.corpus_seed)) {
    for (auto& diff : compare_tallies(*pin, t)) {
      gate.mismatches.push_back(std::string(workload_name(o.workload)) + ": " +
                                diff);
    }
    gate.lines.push_back("pinned " + std::string(kind) + "-corpus digest " +
                         t.digest.substr(0, 16) + "... and counts: " +
                         (gate.mismatches.empty() ? "match" : "DIFFER"));
  } else {
    gate.lines.push_back("no pin for (" + format_pin(kind, o.scale, o.corpus_seed, t) +
                         "); checked by direct-path sample only");
  }
  gate.lines.push_back("table II: " + std::to_string(t.not_run) + " not-run, " +
                       std::to_string(t.rewriting_failure) + " rewriting-failure, " +
                       std::to_string(t.no_activity) + " no-activity, " +
                       std::to_string(t.crashed) + " crashed, " +
                       std::to_string(t.exercised) + " exercised; " +
                       std::to_string(t.intercepted) + " intercepted, " +
                       std::to_string(t.malware) + " malware, " +
                       std::to_string(t.vulnerable) + " vulnerable");
  if (t.apps != fixture.jobs.size() ||
      t.not_run + t.rewriting_failure + t.no_activity + t.crashed +
              t.exercised !=
          t.apps) {
    gate.mismatches.push_back("table II buckets do not partition the " +
                              std::to_string(fixture.jobs.size()) + " apps");
  }

  constexpr std::size_t kDirectSamples = 64;
  auto direct = direct_path_mismatches(fixture, result, kDirectSamples);
  gate.lines.push_back("direct-path sample: " +
                       (direct.empty() ? std::string("all agree")
                                       : std::to_string(direct.size()) + " differ"));
  for (auto& m : direct) gate.mismatches.push_back(std::move(m));

  if (o.workload == Workload::kRescan) {
    const auto& s = result.stats;
    gate.lines.push_back("cache: " + std::to_string(s.cache_hits) + " hits, " +
                         std::to_string(s.cache_misses) + " misses");
    if (s.cache_hits == 0 || s.cache_hits + s.cache_misses != t.apps) {
      gate.mismatches.push_back("rescan: the primed cache was not consulted "
                                "for every app, or never hit");
    }
  }
  return gate;
}

void absorb_gate(Report& report, GateResult&& gate, bool keep_lines) {
  report.attempted += gate.attempted;
  report.failed += gate.failed;
  if (keep_lines) {
    for (auto& line : gate.lines) report.gate_lines.push_back(std::move(line));
  }
  for (auto& m : gate.mismatches) report.mismatches.push_back(std::move(m));
}

}  // namespace perfbench
