#!/usr/bin/env python3
"""Build the eqc benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which compiles the library from src/) in Release
under .bench_build/; later calls only re-check the build. The last line
of standard output is the benchmark's JSON result. The exit code is the
benchmark's: 0 when every output check passed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "eqc_perfbench")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures on first use, then builds incrementally."""
    os.makedirs(OUT_DIR, exist_ok=True)
    log_path = os.path.join(OUT_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout, should runs overlap.
    with open(os.path.join(OUT_DIR, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "eqc_perfbench", "-j", jobs])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   timeout=840)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if r.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no eqc sources under %s/src" % ROOT)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=175,
                           universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within 175 s")

    # The result must carry exactly the metrics BENCHMARK.json declares;
    # otherwise nothing reaches standard output.
    lines = r.stdout.strip().splitlines()
    try:
        got = set(json.loads(lines[-1])["metrics"])
    except (IndexError, KeyError, TypeError, ValueError):
        sys.stderr.write(r.stdout)
        fail("benchmark printed no JSON result", r.returncode or 2)
    want = {m["name"] for m in
            spec["per_layer" if args.trace else "end_to_end"]}
    if got != want:
        sys.stderr.write(r.stdout)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
