#!/usr/bin/env python3
"""Smoke test of the benchmark, with negative controls.

Run from the repository root:

    python3 perfbench/test_perfbench.py

At smoke size (--smoke) it checks, for every workload in BENCHMARK.json and
for serve, which the binary still runs although BENCHMARK.json leaves it out:
  * the untraced run prints every end-to-end metric, with its unit, as a
    nonzero number, and the traced run every per-layer metric;
  * a corrupted reference checksum makes the run exit non-zero and report
    correct=false with a nonzero failed count;
and that the benchmark refuses to run (non-zero exit, no result line) from a
directory holding only BENCHMARK.json and perfbench/, i.e. without sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args, cwd=ROOT):
    cmd = ["python3", os.path.join("perfbench", "run.py")] + list(args)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stderr


def check(cond, what):
    if not cond:
        print("FAIL:", what)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in [w["name"] for w in spec["workloads"]] + ["serve"]:
        for trace, wanted in (("0", e2e), ("1", layers)):
            code, res, err = bench("--workload", name, "--seed", "3", "--seconds", "1",
                                   "--trace", trace, "--smoke")
            what = "%s --trace %s" % (name, trace)
            check(code == 0 and res is not None, "%s exited %d: %s" % (what, code, err[-2000:]))
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, what + ": result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  what + ": not correct")
            check(set(res["metrics"]) == set(wanted), what + ": metric names differ from "
                  "BENCHMARK.json: %s" % sorted(set(res["metrics"]) ^ set(wanted)))
            for metric, unit in wanted.items():
                got = res["metrics"][metric]
                check(got["unit"] == unit, "%s: %s unit %s" % (what, metric, got["unit"]))
                check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                      "%s: %s value %r" % (what, metric, got["value"]))
                if trace == "0":
                    check(got["value"] != 0, "%s: %s is 0" % (what, metric))
        code, res, _ = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace",
                             "0", "--smoke", "--corrupt-reference")
        what = name + " with a corrupted reference"
        check(code != 0, what + ": exit code 0")
        check(res is not None and not res["correct"] and res["failed"] > 0
              and res["failed"] / res["attempted"] > 0, what + ": no failure reported")
        print("ok", name)

    # Without the sources the build must fail and no result may print.
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, res, _ = bench("--workload", "subjects", "--seed", "1", "--seconds", "1", "--trace",
                         "0", cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and res is None, "a checkout without sources did not fail")
    print("ok bare checkout")


if __name__ == "__main__":
    main()
