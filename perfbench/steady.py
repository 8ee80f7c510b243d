#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Usage, from the repository root:

    python3 perfbench/steady.py --workload dist-serve --runs 10
    python3 perfbench/steady.py --workload array-ebr --runs 5 --first-seed 100
    python3 perfbench/steady.py --workload array-ebr --save .bench_build/set1.json
    python3 perfbench/steady.py --workload array-ebr --first-seed 11 --against .bench_build/set1.json

Runs one workload --runs times through run.py, each run with the next seed
from --first-seed on, and prints for each end-to-end metric of
BENCHMARK.json the median, the quartiles (statistics.quantiles, n=4), the
minimum and maximum, and the spread: the interquartile distance as a share
of the median, against the metric's bound. "steady" means the spread is
below a third of the bound, "within" that it is at most the bound.

--save writes the set's values to a JSON file; --against reads such a file
and prints, for each metric, how far this set's median is from that set's,
in the metric's worse direction, against the bound.

The command exits nonzero if any run fails, reports incorrect output or a
failed operation, if any spread exceeds its bound, or if a median is worse
than the --against set's by more than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--save", help="write this set's values to this JSON file")
    ap.add_argument("--against", help="compare medians with a set written by --save")
    args = ap.parse_args()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    values = {m["name"]: [] for m in metrics}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"seed {seed}: run failed with exit code {p.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        if not res["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        if res["failed"]:
            print(f"seed {seed}: {res['failed']} of {res['attempted']} operations failed", file=sys.stderr)
            return 1
        row = []
        for m in metrics:
            v = res["metrics"][m["name"]]["value"]
            values[m["name"]].append(v)
            row.append(f"{m['name']}={v:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    bad = []
    print(f"\n{args.workload}: {args.runs} runs of {seconds}s")
    print(f"{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
    for m in metrics:
        vs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "steady" if spread < m["bound"] / 3 else ("within" if spread <= m["bound"] else "OVER")
        if verdict == "OVER":
            bad.append(f"{m['name']} spread")
        print(f"{m['name']:16} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vs):12.6g} {max(vs):12.6g} "
              f"{spread:8.4f} {m['bound']:6.3f} {verdict}")

    if args.against:
        with open(args.against) as f:
            prev = json.load(f)
        print(f"\nagainst {args.against} ({prev['workload']}, {len(next(iter(prev['values'].values())))} runs)")
        print(f"{'metric':16} {'before':>12} {'now':>12} {'worse by':>9} {'bound':>6}")
        for m in metrics:
            before = statistics.median(prev["values"][m["name"]])
            now = statistics.median(values[m["name"]])
            change = (now - before) / before
            worse = change if m["better"] == "lower" else -change
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            if verdict == "WORSE":
                bad.append(f"{m['name']} median")
            print(f"{m['name']:16} {before:12.6g} {now:12.6g} {worse:9.4f} {m['bound']:6.3f} {verdict}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "values": values}, f, indent=1)
    if bad:
        print("over bound: " + ", ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
