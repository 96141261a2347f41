#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 dpbench/run.py --workload lazydp-train --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
dpbench/ (which builds the lazydp library from the repository sources)
into .bench_build/dpbench; later calls only rebuild what changed. The
last line of standard output is the run's JSON result; build logs and
diagnostics go to standard error. A traced run (--trace 1) also checks
its Chrome-trace file with lazydp_trace_validate and marks the run
incorrect if the file does not validate.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dpbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 170


def sh(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"dpbench: {' '.join(cmd[:3])} ... failed")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "train", "trainer.h")):
        sys.exit(f"dpbench: no lazydp sources under {ROOT}; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        sh(["cmake", "-S", HERE, "-B", BUILD, *gen,
            "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", BUILD, "--target", "dpbench_run",
        "lazydp_trace_validate", "-j", str(os.cpu_count() or 1)])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(RESULTS, exist_ok=True)
    trace_path = os.path.join(
        RESULTS, f"trace-{args.workload}-{args.seed}.json")
    cmd = [os.path.join(BUILD, "dpbench_run"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_path, "--scratch", BUILD]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"dpbench: dpbench_run exited with {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])

    missing = [m for m in expected_metrics(args.trace)
               if m not in result["metrics"]]
    if missing:
        sys.exit(f"dpbench: result lacks metrics {missing}")
    if args.trace:
        check = subprocess.run(
            [os.path.join(BUILD, "lazydp_trace_validate"), trace_path],
            stdout=sys.stderr, stderr=sys.stderr)
        if check.returncode != 0:
            print(f"dpbench: {trace_path} failed validation",
                  file=sys.stderr)
            result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
