#!/usr/bin/env bash
# Isolation matrix (docs/ISOLATION.md): prove both isolation configurations
# — `--isolate` (the worker pool recycled after every app, a fresh process
# per attempt) and `--isolate=pool` (one worker per thread for the whole
# run) — are golden against thread mode from the real CLI, then prove they
# survive hostile signals.
#
#   tools/run_isolation_matrix.sh [scale] [seed] [kill_rounds]
#
# Phases:
#   1. Golden thread-mode survey.
#   2. `--isolate` surveys at 1/2/8 workers — summaries must be
#      byte-identical to the golden one (timing and sandbox-bookkeeping
#      lines stripped; clean workers reproduce thread-mode reports).
#   3. `--isolate=pool` surveys at 1/2/8 workers, plus a round with an
#      aggressive `--recycle-apps` budget — all byte-identical to golden
#      (recycling happens between attempts, so it may never show up in a
#      report).
#   4. A traced `--isolate=pool` survey under `timeout`: workers forked
#      while sibling threads register trace rings and metric names must
#      not deadlock, and the summary must still match golden.
#   5. Sandbox-fault rounds: `--isolate=pool --retry` surveys at 1/2/8
#      workers with injected child aborts, torn responses and recycles
#      must print the summary of an `--isolate` survey with the same
#      flags, sandbox line included: every fate, retry and quarantine
#      belongs to one app, whatever the worker count or the number of
#      apps a worker serves per round trip.
#   6. Child-kill rounds: `--isolate` and `--isolate=pool` surveys while
#      random live sandbox workers are `kill -9`ed mid-run. The in-flight
#      app is re-dispatched on a fresh worker, so the summary must still
#      match golden.
#   7. Kill/resume rounds: journaled `--isolate` / `--isolate=pool`
#      surveys SIGKILLed at a random point, resumed with `--resume`,
#      compared to golden.
#
# Defaults: --scale 0.01, --seed 20161101, 5 kill rounds (0 skips phases 6
# and 7: no random kills, so the run is deterministic). The dydroid
# binary is taken from $DYDROID_CLI or ./build/tools/dydroid. Exit 1 on
# the first mismatch.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
scale="${1:-0.01}"
seed="${2:-20161101}"
kill_rounds="${3:-5}"
cli="${DYDROID_CLI:-$repo/build/tools/dydroid}"

if [[ ! -x "$cli" ]]; then
  echo "run_isolation_matrix: dydroid binary not found at $cli" >&2
  echo "  build it first (cmake --build build) or set DYDROID_CLI" >&2
  exit 2
fi

workdir="$(mktemp -d "${TMPDIR:-/tmp}/dydroid_isolation.XXXXXX")"
trap 'rm -rf "$workdir"' EXIT

# Wall-clock lines, journal bookkeeping, and the sandbox and trace lines
# (the golden run is untraced thread mode and has neither) differ by
# construction.
strip_timing() {
  grep -v -e ' ms on ' -e 'journal:' -e 'resume with' -e '  sandbox:' \
    -e '  trace:' "$1" || true
}

echo "==== golden thread-mode survey (scale=$scale seed=$seed) ===="
"$cli" survey --scale "$scale" --seed "$seed" --jobs 2 \
  > "$workdir/golden.txt"
strip_timing "$workdir/golden.txt" > "$workdir/golden.stable"

echo "==== golden equivalence: --isolate at 1/2/8 workers ===="
for jobs in 1 2 8; do
  out="$workdir/isolate-j$jobs.txt"
  "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" --isolate \
    > "$out"
  strip_timing "$out" > "$out.stable"
  if ! diff -u "$workdir/golden.stable" "$out.stable"; then
    echo "isolate summary at jobs=$jobs DIFFERS from thread mode" >&2
    exit 1
  fi
  echo "jobs=$jobs: byte-identical to thread mode"
done

echo "==== golden equivalence: --isolate=pool at 1/2/8 workers ===="
for jobs in 1 2 8; do
  out="$workdir/pool-j$jobs.txt"
  "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
    --isolate=pool > "$out"
  strip_timing "$out" > "$out.stable"
  if ! diff -u "$workdir/golden.stable" "$out.stable"; then
    echo "pool summary at jobs=$jobs DIFFERS from thread mode" >&2
    exit 1
  fi
  echo "pool jobs=$jobs: byte-identical to thread mode"
done

# Recycling tears a worker down between attempts; an aggressive budget
# forces many mid-run respawns that must never reach a report.
out="$workdir/pool-recycle.txt"
"$cli" survey --scale "$scale" --seed "$seed" --jobs 2 --isolate=pool \
  --recycle-apps 5 > "$out"
strip_timing "$out" > "$out.stable"
if ! diff -u "$workdir/golden.stable" "$out.stable"; then
  echo "pool summary with --recycle-apps 5 DIFFERS from thread mode" >&2
  exit 1
fi
echo "pool --recycle-apps 5: byte-identical to thread mode"

echo "==== traced --isolate=pool survey must finish ===="
out="$workdir/pool-traced.txt"
if ! timeout 120 "$cli" survey --scale "$scale" --seed "$seed" --jobs 4 \
  --isolate=pool --trace "$workdir/pool-trace.json" > "$out"; then
  echo "traced pool survey did not finish (deadlock or failure)" >&2
  exit 1
fi
strip_timing "$out" > "$out.stable"
if ! diff -u "$workdir/golden.stable" "$out.stable"; then
  echo "traced pool summary DIFFERS from thread mode" >&2
  exit 1
fi
echo "traced pool: finished, byte-identical to thread mode"

echo "==== sandbox faults: --isolate=pool at 1/2/8 workers vs --isolate ===="
sandbox_faults=(--retry --faults
  sandbox.crash=p:0.05,sandbox.pool.rpc=p:0.05,sandbox.pool.recycle=p:0.1)
out="$workdir/faults-isolate.txt"
"$cli" survey --scale "$scale" --seed "$seed" --jobs 2 --isolate \
  "${sandbox_faults[@]}" > "$out"
grep -v ' ms on ' "$out" > "$out.stable"
for jobs in 1 2 8; do
  out="$workdir/faults-pool-j$jobs.txt"
  "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
    --isolate=pool "${sandbox_faults[@]}" > "$out"
  grep -v ' ms on ' "$out" > "$out.stable"
  if ! diff -u "$workdir/faults-isolate.txt.stable" "$out.stable"; then
    echo "pool summary under sandbox faults at jobs=$jobs DIFFERS from" \
      "--isolate" >&2
    exit 1
  fi
  echo "sandbox faults, pool jobs=$jobs: identical to --isolate"
done

# $1 = mode label for logs, $2 = seconds to sleep between shots ("0" for
# none), $3... = extra CLI flags for the mode.
childkill_rounds() {
  local mode="$1" throttle="$2"; shift 2
  for round in $(seq 1 "$kill_rounds"); do
    local out="$workdir/childkill-$mode-$round.txt"
    "$cli" survey --scale "$scale" --seed "$seed" --jobs 2 "$@" \
      > "$out" 2>/dev/null &
    local survey_pid=$!
    local kills=0
    # `--isolate` workers are short-lived (one per app), so shoot as fast
    # as the loop allows; pkill observes and kills in one process, the
    # best odds of landing inside a worker's window. `--isolate=pool`
    # workers are the opposite — alive the whole run — so an unthrottled
    # loop would land a kill every few milliseconds and could legitimately
    # escalate one app past the bounded external-kill re-dispatches into a
    # killed_oom outcome; the pool round spaces its shots instead.
    # Deterministic re-dispatch coverage lives in tests/isolation_test.cpp
    # and tests/worker_pool_test.cpp; these rounds are the live chaos
    # version. Landed kills are transparently absorbed (the in-flight app
    # is re-dispatched on a fresh worker), so the summary must stay golden
    # regardless.
    while kill -0 "$survey_pid" 2>/dev/null; do
      if pkill -9 -P "$survey_pid" 2>/dev/null; then
        kills=$((kills + 1))
      fi
      if [[ "$throttle" != 0 ]]; then sleep "$throttle"; fi
    done
    wait "$survey_pid"
    strip_timing "$out" > "$out.stable"
    if ! diff -u "$workdir/golden.stable" "$out.stable"; then
      echo "childkill($mode) round $round: summary DIFFERS after" \
        "$kills child kills" >&2
      exit 1
    fi
    echo "childkill($mode) round $round: ok ($kills kills landed, absorbed)"
  done
}

echo "==== child-kill rounds: kill -9 random live sandbox workers ===="
childkill_rounds isolate 0 --isolate
childkill_rounds pool 0.02 --isolate=pool

# $1 = mode label for logs, $2... = extra CLI flags for the mode.
resume_rounds() {
  local mode="$1"; shift
  for round in $(seq 1 "$kill_rounds"); do
    local journal="$workdir/resume-$mode-$round.jrnl"
    local out="$workdir/resume-$mode-$round.txt"
    rm -f "$journal"
    "$cli" survey --scale "$scale" --seed "$seed" --jobs 2 "$@" \
      --journal "$journal" > /dev/null 2>&1 &
    local survey_pid=$!
    local delay_ms=$((5 + RANDOM % 116))
    sleep "$(printf '0.%03d' "$delay_ms")"
    local verdict
    if kill -9 "$survey_pid" 2>/dev/null; then
      verdict="killed after ${delay_ms}ms"
    else
      verdict="finished before the kill (${delay_ms}ms)"
    fi
    wait "$survey_pid" 2>/dev/null || true

    if [[ -s "$journal" ]]; then
      "$cli" survey --scale "$scale" --seed "$seed" --jobs 2 "$@" \
        --resume "$journal" > "$out" 2>/dev/null
    else
      "$cli" survey --scale "$scale" --seed "$seed" --jobs 2 "$@" \
        > "$out" 2>/dev/null
      verdict="$verdict, no journal yet"
    fi
    strip_timing "$out" > "$out.stable"
    if ! diff -u "$workdir/golden.stable" "$out.stable"; then
      echo "resume($mode) round $round: summary DIFFERS from golden" \
        "($verdict)" >&2
      exit 1
    fi
    echo "resume($mode) round $round: ok ($verdict)"
  done
}

echo "==== kill/resume rounds: SIGKILL the journaled isolated survey ===="
resume_rounds isolate --isolate
resume_rounds pool --isolate=pool

echo "isolation matrix passed: --isolate + --isolate=pool golden at 1/2/8" \
  "workers, pool recycle, traced and sandbox-fault rounds, $kill_rounds" \
  "child-kill +" \
  "$kill_rounds kill/resume rounds per mode byte-identical"
