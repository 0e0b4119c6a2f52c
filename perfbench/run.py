#!/usr/bin/env python3
"""Builds the what-if benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload whatif_bulk --seed 1 --seconds 10 --trace 0

Every argument is passed to the `whatif_bench` binary unchanged. The binary
is built with CMake under `$CARGO_TARGET_DIR/perfbench` (default
`.bench_build/perfbench`); build output goes to stderr, so the last line of
stdout is the binary's JSON result. Exits non-zero, without a result, when
the repository sources are missing, the build fails, or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {HERE.name}/ (need CMakeLists.txt and src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "whatif_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "whatif_bench"


def main():
    out_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(out_root / "perfbench")
    command = [str(binary), *sys.argv[1:], "--work-dir", str(out_root / "work")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
