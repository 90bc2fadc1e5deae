#!/usr/bin/env bash
# Kill/resume stress harness (docs/CHECKPOINT.md): repeatedly SIGKILL a
# `dydroid survey --journal` run at a random point, resume it, and diff the
# summary against an uninterrupted golden run. Each round then repeats the
# same cycle with a warm result cache (docs/CACHE.md) attached — replayed
# journal records plus warm cache hits must reproduce the same summary —
# and with `--isolate` (docs/ISOLATION.md: a worker pool recycled after
# every app) on: journaled sandbox fates must resume to the same summary
# too. Before the rounds, a cached survey into an empty directory must miss
# every app and insert it, and its repeat must hit every app, both printing
# the golden summary. The warm cache is the golden run's journal, copied in
# as the store (a finished journal is a cache store), and a resume of that
# journal under another corpus seed must be refused: its records name other
# jobs. A deterministic abort round, once in thread mode and once with
# `--isolate=pool`, arms `--faults driver.kill=nth:K` (K about half the
# apps): the run must exit 3 with a resume hint that repeats the command as
# run (its `--jobs` and, in the pooled round, `--isolate=pool` included),
# and running the hints verbatim must reach exit 0 and the golden summary,
# minus the `fault policy:` line an armed plan adds.
#
#   tools/run_kill_resume.sh [rounds] [scale] [seed] [jobs]
#
# Defaults: 10 rounds, --scale 0.01, --seed 20161101, --jobs 2. The dydroid
# binary is taken from $DYDROID_CLI or ./build/tools/dydroid. Wall-clock
# lines ("... ms on N worker(s)"), the journal bookkeeping line and the
# cache hit/miss line differ between runs by construction and are stripped
# before the diff; everything else — the Table II outcome histogram and
# every measurement aspect — must be byte-identical. Exit status 1 on the
# first mismatch.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
rounds="${1:-10}"
scale="${2:-0.01}"
seed="${3:-20161101}"
jobs="${4:-2}"
cli="${DYDROID_CLI:-$repo/build/tools/dydroid}"

if [[ ! -x "$cli" ]]; then
  echo "run_kill_resume: dydroid binary not found at $cli" >&2
  echo "  build it first (cmake --build build) or set DYDROID_CLI" >&2
  exit 2
fi

workdir="$(mktemp -d "${TMPDIR:-/tmp}/dydroid_kill_resume.XXXXXX")"
trap 'rm -rf "$workdir"' EXIT

strip_timing() {
  grep -v -e ' ms on ' -e 'journal:' -e 'resume with' -e '  cache:' \
    -e '  sandbox:' "$1" || true
}

echo "==== golden run (scale=$scale seed=$seed jobs=$jobs) ===="
"$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
  --journal "$workdir/golden.jrnl" > "$workdir/golden.txt"
strip_timing "$workdir/golden.txt" > "$workdir/golden.stable"
apps="$(sed -n 's/^surveyed \([0-9]*\) apps.*/\1/p' "$workdir/golden.txt")"

# A cold cache: the first run over an empty directory misses every app and
# inserts it (the store grows and is sealed), the second serves every app
# from that store. Both print the golden summary.
colddir="$workdir/cold_cache"
echo "==== cold result cache: $apps misses, then $apps hits ===="
for expect in "0 hits, $apps misses" "$apps hits, 0 misses"; do
  "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
    --cache "$colddir" > "$workdir/cold.txt"
  if ! grep -q "  cache: $expect" "$workdir/cold.txt"; then
    echo "cold cache: expected $expect:" >&2
    cat "$workdir/cold.txt" >&2
    exit 1
  fi
  strip_timing "$workdir/cold.txt" > "$workdir/cold.stable"
  if ! diff -u "$workdir/golden.stable" "$workdir/cold.stable"; then
    echo "cold cache ($expect): summary DIFFERS from golden" >&2
    exit 1
  fi
  echo "cold cache: $expect, golden summary"
done

# Warm cache for the cached kill/resume cycle: the golden journal is a
# store as it is, so every later lookup under the same (job, config, seed)
# key hits.
cachedir="$workdir/cache"
echo "==== warming result cache from the golden journal ===="
mkdir -p "$cachedir"
cp "$workdir/golden.jrnl" "$cachedir/results.dyc"
"$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
  --cache "$cachedir" > "$workdir/warm.txt"
if ! grep -q "  cache: $apps hits, 0 misses" "$workdir/warm.txt"; then
  echo "warm cache: expected $apps hits and 0 misses:" >&2
  cat "$workdir/warm.txt" >&2
  exit 1
fi
echo "warm cache: $apps hits, 0 misses"

# A resume under another corpus seed sees the same corpus size, seed base
# and per-app seeds but other apps: the records' job digests refuse it.
echo "==== resume under --seed $((seed + 1)) must be refused ===="
cp "$workdir/golden.jrnl" "$workdir/other_seed.jrnl"
if "$cli" survey --scale "$scale" --seed "$((seed + 1))" --jobs "$jobs" \
    --resume "$workdir/other_seed.jrnl" > /dev/null \
    2> "$workdir/other_seed.err"; then
  echo "resume under another corpus seed was accepted" >&2
  exit 1
fi
if ! grep -q "app 0 " "$workdir/other_seed.err"; then
  echo "refusal does not name app 0:" >&2
  cat "$workdir/other_seed.err" >&2
  exit 1
fi
echo "other seed: refused ($(head -c 160 "$workdir/other_seed.err"))"

# The armed driver.kill ends the run right after its K-th journal append,
# mid-claim under --isolate=pool; the sealed journal resumes. The hint is
# the command as run with --journal respelled --resume, so it repeats
# --faults and a resume can abort again; after at most three runs every
# app is journaled and the run exits 0.
abort_resume_round() {
  local tag="$1"; shift
  local journal="$workdir/$tag.jrnl"
  local kill_at=$(( apps / 2 ))
  local -a cmd=(survey --scale "$scale" --seed "$seed" --jobs "$jobs"
                --faults "driver.kill=nth:$kill_at" --journal "$journal" "$@")
  local runs=0 code hint flag
  rm -f "$journal"
  while :; do
    runs=$((runs + 1))
    code=0
    "$cli" "${cmd[@]}" > "$workdir/$tag.txt" 2> "$workdir/$tag.err" ||
      code=$?
    (( code == 0 )) && break
    hint="$(sed -n 's/.*resume with: dydroid //p' "$workdir/$tag.err")"
    if (( code != 3 )) || [[ -z "$hint" ]]; then
      echo "$tag: run $runs exited $code without a resume hint:" >&2
      cat "$workdir/$tag.err" >&2
      exit 1
    fi
    for flag in "--jobs $jobs" "$@"; do
      if [[ " $hint " != *" $flag "* ]]; then
        echo "$tag: run $runs hint lacks '$flag': $hint" >&2
        exit 1
      fi
    done
    if (( runs == 3 )); then
      echo "$tag: no exit 0 after $runs runs" >&2
      exit 1
    fi
    read -r -a cmd <<< "$hint"
  done
  if (( runs == 1 )); then
    echo "$tag: driver.kill=nth:$kill_at did not abort the run" >&2
    exit 1
  fi
  strip_timing "$workdir/$tag.txt" | grep -v '  fault policy:' \
    > "$workdir/$tag.stable" || true
  if ! diff -u "$workdir/golden.stable" "$workdir/$tag.stable"; then
    echo "$tag: summary after following the hints DIFFERS from golden" >&2
    exit 1
  fi
  echo "$tag: ok (aborted after $kill_at appends, exit 0 on run $runs)"
}

echo "==== deterministic abort: driver.kill, then follow the resume hints ===="
abort_resume_round abort-thread
abort_resume_round abort-pool --isolate=pool

kill_resume_round() {
  local tag="$1"; shift
  local journal="$workdir/$tag.jrnl"
  local out="$workdir/$tag.txt"
  rm -f "$journal"

  # Journaled run in the background, killed after a random 5-120 ms.
  "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
    --journal "$journal" "$@" > /dev/null 2>&1 &
  local pid=$!
  local delay_ms=$((5 + RANDOM % 116))
  sleep "$(printf '0.%03d' "$delay_ms")"
  if kill -9 "$pid" 2>/dev/null; then
    verdict="killed after ${delay_ms}ms"
  else
    verdict="finished before the kill (${delay_ms}ms)"
  fi
  wait "$pid" 2>/dev/null || true

  # Resume. A kill before the journal header exists is a valid (if boring)
  # outcome: there is nothing to resume, so re-run from scratch.
  if [[ -s "$journal" ]]; then
    "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
      --resume "$journal" "$@" > "$out" 2>/dev/null
  else
    "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
      "$@" > "$out" 2>/dev/null
    verdict="$verdict, no journal yet"
  fi

  strip_timing "$out" > "$out.stable"
  if ! diff -u "$workdir/golden.stable" "$out.stable"; then
    echo "$tag: resumed summary DIFFERS from golden ($verdict)" >&2
    exit 1
  fi
  echo "$tag: ok ($verdict)"
}

for round in $(seq 1 "$rounds"); do
  kill_resume_round "round$round"
  kill_resume_round "round$round-cached" --cache "$cachedir"
  kill_resume_round "round$round-isolated" --isolate
done

echo "kill/resume harness passed: abort rounds and $rounds rounds" \
  "(plain + warm-cache + isolate) byte-identical"
