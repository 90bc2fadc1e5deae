#!/usr/bin/env bash
# Shard/merge equivalence harness (docs/SHARDING.md): split a survey across
# N shards with `--shard I/N --journal`, fold the shard journals back into
# one with `dydroid merge`, replay the merged journal with `--resume`, and
# diff the summary against an unsharded golden run. Repeated for every
# shard count in the matrix, then one chaos round per shard count: SIGKILL
# a random shard mid-run, resume that shard to completion, merge, replay —
# the summary must still match the golden byte for byte. Two rounds check
# the one journal format: a lone unsharded journal merges (it is shard
# 0/1) and replays to the golden, and a merged journal resumed with an
# extra --budget is refused with a message naming the config fingerprint.
#
#   tools/run_shard_matrix.sh [scale] [seed] [jobs] [shard_counts...]
#
# Defaults: --scale 0.01, --seed 20161101, --jobs 2, shard counts 2 3 8.
# The dydroid binary is taken from $DYDROID_CLI or ./build/tools/dydroid.
# Wall-clock lines ("... ms on N worker(s)"), the journal bookkeeping line
# and the shard summary line differ between runs by construction and are
# stripped before the diff; everything else — the Table II outcome
# histogram and every measurement aspect — must be byte-identical. Exit
# status 1 on the first mismatch.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
scale="${1:-0.01}"
seed="${2:-20161101}"
jobs="${3:-2}"
shift $(( $# > 3 ? 3 : $# ))
shard_counts=("${@:-}")
if [[ ${#shard_counts[@]} -eq 0 || -z "${shard_counts[0]}" ]]; then
  shard_counts=(2 3 8)
fi
cli="${DYDROID_CLI:-$repo/build/tools/dydroid}"

if [[ ! -x "$cli" ]]; then
  echo "run_shard_matrix: dydroid binary not found at $cli" >&2
  echo "  build it first (cmake --build build) or set DYDROID_CLI" >&2
  exit 2
fi

workdir="$(mktemp -d "${TMPDIR:-/tmp}/dydroid_shard_matrix.XXXXXX")"
trap 'rm -rf "$workdir"' EXIT

strip_timing() {
  grep -v -e ' ms on ' -e 'journal:' -e 'resume with' -e '  shard ' \
    "$1" || true
}

echo "==== golden run (scale=$scale seed=$seed jobs=$jobs) ===="
"$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
  > "$workdir/golden.txt"
strip_timing "$workdir/golden.txt" > "$workdir/golden.stable"

# Replay a merged journal and diff the stable summary against golden.
check_replay() {
  local tag="$1" merged="$2"
  local out="$workdir/$tag.replay.txt"
  "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
    --resume "$merged" > "$out"
  strip_timing "$out" > "$out.stable"
  if ! diff -u "$workdir/golden.stable" "$out.stable"; then
    echo "$tag: merged replay DIFFERS from golden" >&2
    exit 1
  fi
}

shard_round() {
  local n="$1"
  local journals=()
  for (( i = 0; i < n; i++ )); do
    local journal="$workdir/s${n}_${i}.jrnl"
    rm -f "$journal"
    "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
      --shard "$i/$n" --journal "$journal" > /dev/null
    journals+=("$journal")
  done
  local merged="$workdir/s${n}_merged.jrnl"
  "$cli" merge "$merged" "${journals[@]}" > /dev/null
  check_replay "shards=$n" "$merged"
  echo "shards=$n: ok (merged replay byte-identical)"
}

chaos_round() {
  local n="$1"
  local victim=$(( RANDOM % n ))
  local journals=()
  for (( i = 0; i < n; i++ )); do
    local journal="$workdir/c${n}_${i}.jrnl"
    rm -f "$journal"
    if (( i == victim )); then
      # Kill this shard after a random 3-25 ms — a shard run is ~1/N of
      # the golden wall time, so the window is tighter than the
      # kill/resume harness's, and the victim runs single-threaded to
      # stretch it. Then resume it (a no-op if it finished; a fresh run
      # if the kill landed before the metadata record).
      "$cli" survey --scale "$scale" --seed "$seed" --jobs 1 \
        --shard "$i/$n" --journal "$journal" > /dev/null 2>&1 &
      local pid=$!
      local delay_ms=$(( 3 + RANDOM % 23 ))
      sleep "$(printf '0.%03d' "$delay_ms")"
      local verdict="finished before the kill (${delay_ms}ms)"
      if kill -9 "$pid" 2>/dev/null; then
        verdict="killed after ${delay_ms}ms"
      fi
      wait "$pid" 2>/dev/null || true
      # A kill before the journal header exists leaves nothing to resume.
      if [[ -s "$journal" ]]; then
        "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
          --shard "$i/$n" --resume "$journal" > /dev/null
      else
        "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
          --shard "$i/$n" --journal "$journal" > /dev/null
        verdict="$verdict, no journal yet"
      fi
      echo "  chaos shards=$n: shard $i/$n $verdict, resumed"
    else
      "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
        --shard "$i/$n" --journal "$journal" > /dev/null
    fi
    journals+=("$journal")
  done
  local merged="$workdir/c${n}_merged.jrnl"
  "$cli" merge "$merged" "${journals[@]}" > /dev/null
  check_replay "chaos-shards=$n" "$merged"
  echo "chaos shards=$n: ok (kill/resume/merge replay byte-identical)"
}

# An unsharded journal is shard 0/1: it merges alone.
lone_round() {
  local journal="$workdir/lone.jrnl"
  local merged="$workdir/lone_merged.jrnl"
  rm -f "$journal"
  "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
    --journal "$journal" > /dev/null
  "$cli" merge "$merged" "$journal" > /dev/null
  check_replay "lone" "$merged"
  echo "lone unsharded journal: ok (merged replay byte-identical)"
}

# A merged journal keeps the shards' config fingerprint: resuming it under
# a different configuration must fail loudly and say why.
mismatch_round() {
  local out="$workdir/mismatch.txt"
  if "$cli" survey --scale "$scale" --seed "$seed" --jobs "$jobs" \
      --budget 60000 --resume "$1" > "$out" 2>&1 ||
      ! grep -q 'config fingerprint' "$out"; then
    echo "mismatch: an extra --budget was not refused by fingerprint:" >&2
    cat "$out" >&2
    exit 1
  fi
  echo "mismatch: ok (merged journal refused under an extra --budget)"
}

for n in "${shard_counts[@]}"; do
  shard_round "$n"
  chaos_round "$n"
done
lone_round
mismatch_round "$workdir/s${shard_counts[0]}_merged.jrnl"

echo "shard matrix passed: shard counts [${shard_counts[*]}]" \
  "(clean + kill/resume chaos + lone merge) byte-identical," \
  "mismatched resume refused"
