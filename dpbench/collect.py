#!/usr/bin/env python3
"""Collect a result set: repeated runs of the benchmark, one JSON line each.

    python3 dpbench/collect.py --out before.jsonl --runs 10
    python3 dpbench/collect.py --out traced.jsonl --runs 3 --trace 1 \\
        --workloads lazydp-train,dpsgd-train

Run from the repository root. Every run lasts run_seconds of
BENCHMARK.json, and run i of every workload uses seed i (1..--runs);
workloads are interleaved within each round so slow drift of the host
spreads over all of them. Each line of --out holds {"workload", "seed",
"trace", "seconds", "result"}; compare sets with compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    with open(args.out, "a") as out:
        for seed in range(1, args.runs + 1):
            for workload in args.workloads.split(","):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]),
                     "--trace", str(args.trace)],
                    cwd=ROOT, stdout=subprocess.PIPE)
                if proc.returncode != 0:
                    sys.exit(f"collect: {workload} seed {seed} failed")
                result = json.loads(proc.stdout.decode().splitlines()[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace,
                                      "seconds": spec["run_seconds"],
                                      "result": result}) + "\n")
                out.flush()
                print(f"collect: {workload} seed {seed} done",
                      file=sys.stderr)


if __name__ == "__main__":
    main()
