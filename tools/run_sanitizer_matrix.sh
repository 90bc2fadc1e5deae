#!/usr/bin/env bash
# Build and run the test suite under each sanitizer configuration.
#
#   tools/run_sanitizer_matrix.sh [asan|ubsan|tsan ...] [-- <ctest args>]
#
# With no arguments all three configs run. Each config builds into its own
# tree (build-asan / build-ubsan / build-tsan) so incremental re-runs are
# cheap. Extra arguments after `--` are forwarded to ctest — e.g.
#
#   tools/run_sanitizer_matrix.sh asan -- -L tier1
#
# runs only the fast tier-1 suite under AddressSanitizer,
#
#   tools/run_sanitizer_matrix.sh asan -- -L vm
#
# runs the MiniDalvik suites (interpreter, frameworks, taint, monkey,
# behaviours) with LeakSanitizer on: the Vm frees its whole heap, cycles
# an app built included, when it dies,
#
#   tools/run_sanitizer_matrix.sh asan -- -L journal
#
# runs every suite that reads the CRC frame layer (journal, kill/resume,
# shard merge, result cache, and their fuzz belts): their records are
# slices of one read buffer that must outlive every record. And
#
#   tools/run_sanitizer_matrix.sh tsan -- -L isolate
#
# runs just the worker-pool sandbox suites (docs/ISOLATION.md) — worth a
# dedicated pass since they fork from worker threads, and
#
#   tools/run_sanitizer_matrix.sh tsan -- -L shard
#
# runs the sharded-execution and merge suites (docs/SHARDING.md), which
# replay merged journals at several worker counts and so make a good TSan
# target too. RLIMIT_AS is auto-skipped under ASan/TSan
# (address_space_limit_supported); the rest of the sandbox runs sanitized
# like everything else.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

configs=()
ctest_args=()
parsing_ctest=false
for arg in "$@"; do
  if $parsing_ctest; then
    ctest_args+=("$arg")
  elif [[ "$arg" == "--" ]]; then
    parsing_ctest=true
  else
    configs+=("$arg")
  fi
done
if [[ ${#configs[@]} -eq 0 ]]; then
  configs=(asan ubsan tsan)
fi

flag_for() {
  case "$1" in
    asan) echo "-DDYDROID_ASAN=ON" ;;
    ubsan) echo "-DDYDROID_UBSAN=ON" ;;
    tsan) echo "-DDYDROID_TSAN=ON" ;;
    *)
      echo "unknown sanitizer config: $1 (want asan|ubsan|tsan)" >&2
      exit 2
      ;;
  esac
}

failed=()
for config in "${configs[@]}"; do
  flag="$(flag_for "$config")"
  build="$repo/build-$config"
  echo "==== [$config] configure + build ($flag) ===="
  cmake -S "$repo" -B "$build" "$flag" >/dev/null
  cmake --build "$build" -j "$jobs"
  echo "==== [$config] ctest ===="
  if ! ctest --test-dir "$build" --output-on-failure -j "$jobs" \
      "${ctest_args[@]+"${ctest_args[@]}"}"; then
    failed+=("$config")
  fi
done

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "sanitizer matrix FAILED: ${failed[*]}" >&2
  exit 1
fi
echo "sanitizer matrix passed: ${configs[*]}"
