#!/usr/bin/env python3
"""Build the stackscope benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig2-grid --seed 1 --seconds 12 --trace 0

Workloads: fig2-grid, hpc-socket, serve-mix (see perfbench/README.md).
The build goes to .bench_build/ (Release); the first run configures and
compiles, later runs only re-check it. Build output goes to stderr, the
benchmark's report to stdout; the last stdout line is the JSON result.
Exit status is the benchmark's: 0 when every output check passed.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"
# The benchmark itself must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 175


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no stackscope sources next to perfbench/ "
                 "(expected src/CMakeLists.txt); nothing to build")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    os.chdir(ROOT)
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as exc:
        sys.exit(f"perfbench: build failed: {exc}")
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    proc = subprocess.Popen([str(BINARY)] + sys.argv[1:])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
