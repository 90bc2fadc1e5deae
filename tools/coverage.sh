#!/usr/bin/env bash
# Line and function coverage of src/, per module, for two passes:
#
#   1. the traffic: `ctest -L 'bench|golden|chaos'`, i.e. the 17 paper
#      benches, the faultcheck and example goldens, and the kill/resume,
#      shard and trace harnesses that drive the CLI;
#   2. the whole suite (`ctest`), unit tests included.
#
#   tools/coverage.sh
#
# Builds its own tree, build-cov/, with `--coverage` in the compiler and
# linker flags. The linker's `-u,__gcov_dump,-u,__gcov_reset` pulls libgcov's
# flush entry points in, so forked pool workers write their own counts
# (src/support/worker_pool.cpp). The .gcda files are deleted before each
# pass, and after it `gcov-12 --json-format --stdout` reads every .gcno of
# the tree (a unit without a .gcda counts as unrun).
#
# Prints, per src/ module and per pass, the lines and functions run; then
# the functions no pass runs and the functions only the whole suite runs
# (module, file:line, name as gcov lists it). The last line is one JSON
# summary: per-module line and function percentages of both passes and the
# lengths of both lists. Exits 1 when the build or a ctest pass fails and 2
# when gcov-12 (or python3, cmake, ctest) is missing. perfbench is not part
# of the traffic: its `--trace 0` path writes /proc/self/clear_refs.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-cov"
out="$build/coverage"
jobs="$(nproc 2>/dev/null || echo 4)"

for tool in gcov-12 python3 cmake ctest; do
  if ! command -v "$tool" >/dev/null; then
    echo "coverage: $tool not found" >&2
    exit 2
  fi
done

cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-O1 --coverage -fprofile-update=atomic" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage -Wl,-u,__gcov_dump,-u,__gcov_reset" \
  >/dev/null
mkdir -p "$out"
if ! cmake --build "$build" -j"$jobs" >"$out/build.log" 2>&1; then
  tail -n 25 "$out/build.log" >&2
  echo "coverage: build failed (log: $out/build.log)" >&2
  exit 1
fi

# run_pass NAME [ctest args...]: zero the counters, run ctest, dump gcov JSON.
run_pass() {
  local name="$1"
  shift
  find "$build" -name '*.gcda' -delete
  if ! ctest --test-dir "$build" -j"$jobs" "$@" >"$out/$name.log" 2>&1; then
    tail -n 25 "$out/$name.log" >&2
    echo "coverage: ctest pass '$name' failed (log: $out/$name.log)" >&2
    exit 1
  fi
  grep -E 'tests passed' "$out/$name.log" | sed "s/^/$name: /"
  find "$build" -name '*.gcno' -print0 |
    (cd "$out" && xargs -0 gcov-12 --json-format --stdout 2>/dev/null) \
      >"$out/$name.json"
}

run_pass traffic -L 'bench|golden|chaos'
run_pass full

python3 - "$repo/src" "$out/traffic.json" "$out/full.json" <<'PY'
import json
import os
import sys

src = os.path.realpath(sys.argv[1]) + os.sep


def load(path):
    """Sums one pass's gcov JSON documents over every unit that compiled a
    src/ file: line counts per (file, line), function counts per (file,
    name), since a header's inline functions appear once per unit."""
    lines, funcs = {}, {}
    with open(path) as stream:
        for doc in stream:
            if not doc.strip():
                continue
            data = json.loads(doc)
            cwd = data.get("current_working_directory", "")
            for entry in data["files"]:
                path = os.path.realpath(os.path.join(cwd, entry["file"]))
                if not path.startswith(src):
                    continue
                rel = path[len(src):]
                for line in entry["lines"]:
                    key = (rel, line["line_number"])
                    lines[key] = lines.get(key, 0) + line["count"]
                for fn in entry["functions"]:
                    key = (rel, fn.get("demangled_name", fn["name"]))
                    old = funcs.get(key, (fn["start_line"], 0))
                    funcs[key] = (old[0], old[1] + fn["execution_count"])
    return lines, funcs


def module(rel):
    return rel.split(os.sep, 1)[0]


def table(lines, funcs):
    rows = {}
    for (rel, _), count in lines.items():
        row = rows.setdefault(module(rel), [0, 0, 0, 0])
        row[0] += count > 0
        row[1] += 1
    for (rel, _), (_, count) in funcs.items():
        row = rows.setdefault(module(rel), [0, 0, 0, 0])
        row[2] += count > 0
        row[3] += 1
    rows["total"] = [sum(r[i] for r in rows.values()) for i in range(4)]
    return rows


def pct(run, total):
    return round(100.0 * run / total, 1) if total else 0.0


def show(title, rows):
    print(f"\n{title}")
    print(f"  {'module':<12} {'lines run':>15} {'':>6} {'functions run':>15}")
    for name, (lr, lt, fr, ft) in sorted(
            rows.items(), key=lambda kv: (kv[0] == "total", kv[0])):
        print(f"  {name:<12} {lr:>7}/{lt:<7} {pct(lr, lt):>5}% "
              f"{fr:>7}/{ft:<7} {pct(fr, ft):>5}%")


# Spelled-out library types, shortened for reading.
SHORT = [("std::__cxx11::basic_string<char, std::char_traits<char>, "
          "std::allocator<char> >", "std::string"),
         ("std::basic_string_view<char, std::char_traits<char> >",
          "std::string_view"),
         (", 18446744073709551615ul>", ">"),
         ("[abi:cxx11]", "")]


def listing(title, keys, funcs):
    print(f"\n{title} ({len(keys)}):")
    for rel, name in sorted(keys, key=lambda k: (k[0], funcs[k][0], k[1])):
        line = funcs[(rel, name)][0]
        for long, short in SHORT:
            name = name.replace(long, short)
        print(f"  {module(rel):<12} {rel}:{line}  {name}")


traffic_lines, traffic_funcs = load(sys.argv[2])
full_lines, full_funcs = load(sys.argv[3])
passes = {"traffic": table(traffic_lines, traffic_funcs),
          "full": table(full_lines, full_funcs)}
show("pass 1, traffic (ctest -L 'bench|golden|chaos')", passes["traffic"])
show("pass 2, full suite (ctest)", passes["full"])

never = [k for k, (_, n) in full_funcs.items()
         if n == 0 and traffic_funcs.get(k, (0, 0))[1] == 0]
only_full = [k for k, (_, n) in full_funcs.items()
             if n > 0 and traffic_funcs.get(k, (0, 0))[1] == 0]
listing("functions no pass runs", never, full_funcs)
listing("functions only the full suite runs", only_full, full_funcs)

summary = {name: {mod: {"lines": pct(r[0], r[1]), "functions": pct(r[2], r[3])}
                  for mod, r in rows.items()}
           for name, rows in passes.items()}
summary["never_run"] = len(never)
summary["full_suite_only"] = len(only_full)
print()
print(json.dumps(summary, sort_keys=True, separators=(",", ":")))
PY
