#!/usr/bin/env bash
# Bench regression gate: diff the measured overheads in BENCH_corpus.json
# against the committed budgets so a perf regression fails loudly instead
# of silently rotting in a JSON nobody reads.
#
#   tools/check_bench_regression.sh [path/to/BENCH_corpus.json]
#
# Defaults to the BENCH_corpus.json at the repo root (the committed
# baseline); point it at build/BENCH_corpus.json after a fresh
# `./build/bench/micro_perf` run to gate new numbers before committing
# them. Exit 1 on the first budget violation, 2 on a missing file/tool.
#
# Budgets (sources: docs/OBSERVABILITY.md cost contract, docs/CHECKPOINT.md):
#   metrics.overhead_pct            <= 15   instrumentation-on corpus cost
#   journaled.overhead_pct          <= 25   write-ahead journal cost
#   every *_identical flag          == true behavior never drifts for speed
#   cache.hit_rate                  == 1.0  warm run replays every app
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
json="${1:-$repo/BENCH_corpus.json}"

if ! command -v jq > /dev/null; then
  echo "check_bench_regression: jq not found on PATH" >&2
  exit 2
fi
if [[ ! -r "$json" ]]; then
  echo "check_bench_regression: $json not found" >&2
  echo "  run ./build/bench/micro_perf to (re)generate it" >&2
  exit 2
fi

failures=0

# $1 = jq path, $2 = comparison op for awk, $3 = budget, $4 = what it means.
check_number() {
  local path="$1" op="$2" budget="$3" label="$4"
  local value
  value="$(jq -er "$path" "$json")" || {
    echo "FAIL $label: $path missing from $json" >&2
    failures=$((failures + 1))
    return
  }
  if awk -v v="$value" -v b="$budget" "BEGIN { exit !(v $op b) }"; then
    echo "ok   $label: $path = $value (budget $op $budget)"
  else
    echo "FAIL $label: $path = $value violates budget $op $budget" >&2
    failures=$((failures + 1))
  fi
}

# $1 = jq path, $2 = what it means.
check_true() {
  local path="$1" label="$2"
  local value
  value="$(jq -er "$path" "$json")" || value="missing"
  if [[ "$value" == "true" ]]; then
    echo "ok   $label: $path = true"
  else
    echo "FAIL $label: $path = $value, expected true" >&2
    failures=$((failures + 1))
  fi
}

echo "==== bench budgets vs $json ===="
check_number '.metrics.overhead_pct' '<=' 15 "metrics instrumentation"
check_number '.journaled.overhead_pct' '<=' 25 "write-ahead journal"
check_true '.reports_identical' "serial vs parallel reports"
check_true '.isolation.pool.reports_identical' "pool-mode reports"
check_true '.sharding.replayed_identical' "sharded merge replay"
check_number '.cache.hit_rate' '>=' 1 "warm cache hit rate"

if [[ "$failures" -gt 0 ]]; then
  echo "bench regression check FAILED: $failures budget violation(s)" >&2
  exit 1
fi
echo "bench regression check passed"
