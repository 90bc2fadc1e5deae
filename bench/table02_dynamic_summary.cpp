// Reproduces paper Table II: dynamic-analysis summary over apps whose
// decompiled IR contains DEX-DCL code (DEX column) and native-loading code
// (Native column): failures (rewriting failure / no activity / crash),
// exercised, and actually-intercepted counts.
#include "common.hpp"

using namespace dydroid;
using namespace dydroid::bench;

namespace {

struct Column {
  double total = 0;
  double rewriting_failure = 0;
  double no_activity = 0;
  double crash = 0;
  double exercised = 0;
  double intercepted = 0;
  [[nodiscard]] double failure() const {
    return rewriting_failure + no_activity + crash;
  }
};

void print_column(const char* name, const Column& m, const Column& paper) {
  std::printf("[%s column] %.0f apps with %s-DCL code (paper %.0f)\n", name,
              m.total, name, paper.total);
  auto pct = [](double x, double total) {
    return total == 0 ? 0.0 : 100.0 * x / total;
  };
  print_row("Failure", m.failure(), pct(m.failure(), m.total), paper.failure(),
            pct(paper.failure(), paper.total));
  print_row("  Rewriting failure", m.rewriting_failure,
            pct(m.rewriting_failure, m.total), paper.rewriting_failure,
            pct(paper.rewriting_failure, paper.total));
  print_row("  No activity", m.no_activity, pct(m.no_activity, m.total),
            paper.no_activity, pct(paper.no_activity, paper.total));
  print_row("  Crash", m.crash, pct(m.crash, m.total), paper.crash,
            pct(paper.crash, paper.total));
  print_row("Exercised", m.exercised, pct(m.exercised, m.total),
            paper.exercised, pct(paper.exercised, paper.total));
  print_row("Intercepted", m.intercepted, pct(m.intercepted, m.total),
            paper.intercepted, pct(paper.intercepted, paper.total));
  std::printf("\n");
}

}  // namespace

int main() {
  const auto detector = malware::paper_detector();
  const auto m = measure_corpus(&detector);
  print_title("Table II",
              "dynamic analysis summary (DEX & native columns)");

  Column dex;
  Column native;
  for (const auto& app : m.apps) {
    const auto& r = app.report;
    auto tally = [&](Column& col, core::CodeKind kind) {
      col.total += 1;
      switch (r.status) {
        case core::DynamicStatus::kRewritingFailure:
          col.rewriting_failure += 1;
          break;
        case core::DynamicStatus::kNoActivity:
          col.no_activity += 1;
          break;
        case core::DynamicStatus::kCrash:
          col.crash += 1;
          break;
        case core::DynamicStatus::kExercised:
          col.exercised += 1;
          if (r.intercepted(kind)) col.intercepted += 1;
          break;
        case core::DynamicStatus::kNotRun:
          break;
      }
    };
    if (r.static_dcl.dex_dcl) tally(dex, core::CodeKind::Dex);
    if (r.static_dcl.native_dcl) tally(native, core::CodeKind::Native);
  }

  const Column paper_dex{40849, 454, 8, 33, 40354, 16768};
  const Column paper_native{25287, 133, 13, 184, 24957, 13748};
  print_column("DEX", dex, paper_dex);
  print_column("Native", native, paper_native);
  print_footer();
  return 0;
}
