#!/usr/bin/env python3
"""Records the benchmark's baseline: repeated runs of every workload.

Run from the repository root, alone on the host:

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--workloads a,b]

Each workload runs --runs times untraced, each time with another seed, at
BENCHMARK.json's run_seconds. The script prints, per workload and end-to-end
metric, the median and quartiles (statistics.quantiles, n=4) and the spread
(interquartile distance over the median) next to the metric's bound. It then
makes one traced run of each workload and prints the GC share of run_s.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not res["correct"]:
        sys.exit("%s seed %d failed: %s" % (workload, seed, proc.stderr[-2000:]))
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    opts = ap.parse_args()
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}

    print("| workload | metric | unit | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in opts.workloads.split(","):
        values = {}
        for i in range(opts.runs):
            for k, v in run(workload, opts.first_seed + i, spec["run_seconds"], 0).items():
                values.setdefault(k, []).append(v)
        for name, (unit, bound) in bounds.items():
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            print("| %s | %s | %s | %.6g | %.6g | %.6g | %.3f | %.2f |"
                  % (workload, name, unit, med, q1, q3, (q3 - q1) / med, bound), flush=True)
    print()
    print("| workload | traced run_s share in GC (runtime.gc.share) | trace.overhead_run_s |")
    print("|---|---|---|")
    for workload in opts.workloads.split(","):
        m = run(workload, opts.first_seed, spec["run_seconds"], 1)
        print("| %s | %.4f | %.4f |" % (workload, m["runtime.gc.share"],
                                        m["trace.overhead_run_s"]), flush=True)


if __name__ == "__main__":
    main()
