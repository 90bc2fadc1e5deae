#!/usr/bin/env python3
"""Build and run the DyDroid benchmark.

    python3 perfbench/run.py --workload market|campaign|rescan --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and builds
perfbench/ together with the src/ libraries it links into
.bench_build/perfbench; later calls rebuild incrementally. Build output goes
to standard error. Every argument is passed on to the perfbench binary (see
perfbench/README.md), whose last line of standard output is the result as
one JSON object.
"""
import hashlib
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def tree_digest():
    """A digest of the benchmarked sources: src/ and perfbench/."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def source_id():
    """The git commit of the checkout, marked dirty with the tree digest when
    tracked files differ from it; the tree digest alone outside git."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            clean = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=ROOT,
                                   check=False).returncode == 0
            commit = out.stdout.strip()
            return commit if clean else f"{commit}-dirty {tree_digest()}"
    return tree_digest()


def build():
    """Configure once, then build the perfbench target; False on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, check=False).returncode != 0:
            return False
    return True


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no DyDroid sources under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [str(BUILD / "perfbench"),
               "--golden", str(BENCH / "golden.txt"),
               "--work-dir", str(ROOT / ".bench_build" / "perfbench-work"),
               "--commit", source_id(),
               *sys.argv[1:]]
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
