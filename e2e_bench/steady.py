#!/usr/bin/env python3
"""Check how steady the end-to-end metrics are on one workload.

    python3 e2e_bench/steady.py --workload serve_ragged [--runs 10]
        [--first-seed 1] [--seconds N]

Runs the benchmark untraced --runs times, each with another seed, and
prints for every end-to-end metric the median, the first and third
quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, next to the metric's bound in BENCHMARK.json. A spread
above a third of the bound is flagged "wide"; above the bound, "OVER".
setup_s is reported but not flagged: its bound limits drift between
commits, not run-to-run spread. Exits non-zero if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            print("seed %d failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, m["value"])
            for k, m in result["metrics"].items())), flush=True)

    print("\n%-18s %12s %12s %12s %8s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for metric in bench["end_to_end"]:
        name = metric["name"]
        vals = values.get(name)
        if not vals:
            print("%-18s missing" % name)
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if name != "setup_s":
            if spread > metric["bound"]:
                flag = "OVER"
            elif spread > metric["bound"] / 3:
                flag = "wide"
        print("%-18s %12.5g %12.5g %12.5g %8.3f %8.3f %s" %
              (name, med, q1, q3, spread, metric["bound"], flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
