#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload W ...]

Runs perfbench/run.py --trace 0 once per seed on each workload (seeds
first-seed .. first-seed+runs-1) and prints, per workload and metric, the
median and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above a third of its bound
is flagged: such a metric is too noisy to judge a change by. Exits 1 if
any run failed or any spread other than setup_s exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for name in names:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, check=False)
            if run.returncode != 0:
                print(f"{name} seed {seed}: exit {run.returncode}\n"
                      f"{run.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(run.stdout.strip().split("\n")[-1])
            ok = ok and result["correct"]
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        print(f"== {name} ({args.runs} runs)")
        for m, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bounds[m]:
                flag = "OVER BOUND"
                ok = ok and m == "setup_s"
            elif spread > bounds[m] / 3:
                flag = "above bound/3"
            print(f"  {m:20s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[m]:.2f}  {flag}")
            print("    " + " ".join(f"{v:.6g}" for v in vals))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
