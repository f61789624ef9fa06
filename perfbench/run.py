#!/usr/bin/env python3
"""Build and run the fig4-matrix benchmark (README.md in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload hits --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The simulator library, the bench harness and the benchmark program are
compiled from this checkout's sources into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Build output goes to stderr, so the last
line of stdout is the program's JSON result. All arguments are passed
through to the program, which validates them.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
REQUIRED = ("src/CMakeLists.txt", "bench/harness.cpp", "tests/report_digest.hpp",
            "perfbench/CMakeLists.txt")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        fail("run from the repository root; missing " + ", ".join(missing))
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), *sys.argv[1:],
           "--work-dir", work_dir]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
