#!/usr/bin/env python3
"""The repository's benchmark command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library and the benchmark from
source into .bench_build/perfbench (CMake, Release), runs one workload,
and prints provenance, every metric with its unit, the AF/ORIG headline
when both abtree cells have a result for this seed, and as the last line
one JSON object {"correct", "attempted", "failed", "metrics"} holding the
metrics BENCHMARK.json lists for this mode (end_to_end for --trace 0,
per_layer for --trace 1). Every result is also kept, with the host
fingerprint and the effective config, under .bench_build/perfbench/results.
Exit status: 0 when the output check passed, 1 when it rejected an item,
2 when the benchmark could not be built or run.
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SOURCE_DIRS = ["alloc", "core", "ds", "harness", "smr", "perfbench"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr,
                      check=False).returncode:
        fail("build failed")


def source_hash():
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for d in SOURCE_DIRS:
        files += glob.glob(os.path.join(ROOT, d, "**", "*"), recursive=True)
    for f in sorted(p for p in files if os.path.isfile(p)):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True, check=False)
    return r.stdout.strip() if r.returncode == 0 else "none"


def headline(seed, current_hash):
    """AF/ORIG ratios of the two abtree cells, reported, never gated.

    Pairs only results of the current source: a cell saved from other
    source is named as stale instead.
    """
    cells = {}
    for name in ("abtree-orig", "abtree-af"):
        path = os.path.join(BUILD, "results", f"{name}-seed{seed}-trace0.json")
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            cells[name] = json.load(fh)
    stale = [name for name, cell in cells.items()
             if cell.get("host", {}).get("source_hash") != current_hash]
    if stale:
        return (f"headline seed={seed} AF/ORIG: not printed, "
                f"{' and '.join(stale)} result is from other source "
                f"(run it again)")
    parts = []
    for m in ("throughput_mops", "peak_garbage_nodes", "latency_p99999_us"):
        orig = cells["abtree-orig"]["metrics"][m]["value"]
        af = cells["abtree-af"]["metrics"][m]["value"]
        ratio = af / orig if orig else float("nan")
        parts.append(f"{m} {ratio:.3f}x (af {af:.6g} / orig {orig:.6g})")
    return f"headline seed={seed} AF/ORIG: " + "; ".join(parts)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must not be negative")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    build()
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    current_hash = source_hash()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--source-hash", current_hash]
    if args.trace:
        cmd += ["--records", os.path.join(BUILD, "records", tag + ".csv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines:
        fail(f"run exited with status {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("run printed no result line")
    missing = [m for m in wanted if m not in result["metrics"]]
    if missing:
        fail("run did not report " + ", ".join(missing))

    saved = dict(result)
    for line in lines[:-1]:
        print(line)
        for key in ("host", "config"):
            if line.startswith(key + " "):
                saved[key] = json.loads(line[len(key) + 1:])
    with open(os.path.join(BUILD, "results", tag + ".json"), "w") as fh:
        json.dump(saved, fh, indent=1)
    if args.trace == 0 and args.workload in ("abtree-orig", "abtree-af"):
        line = headline(args.seed, current_hash)
        if line:
            print(line)

    result["metrics"] = {m: result["metrics"][m] for m in wanted}
    print(json.dumps(result), flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
