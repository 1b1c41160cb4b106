#!/usr/bin/env python3
"""Null A/B check: run the benchmark as two interleaved sets on one commit.

Usage (from the repository root):

    python3 perfbench/ab.py                       # every workload, 10 runs per set
    python3 perfbench/ab.py --workloads serve_warm --runs 5

Run i of each set uses seed 100+i; the two sets alternate which one runs
first. For every end-to-end metric it prints each set's median, quartiles
(statistics.quantiles, n=4) and spread = (Q3 - Q1) / median, then the
shift of set B's median against set A's, with the bound from
BENCHMARK.json. A metric passes when each set's spread stays within the
bound and B's median is not worse than A's by more than the bound.
"steady" additionally asks for spreads below a third of the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_BASE = 100


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d, exit %d):\n%s" % (workload, seed, out.returncode, out.stderr[-2000:]))
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        print("  warning: %s seed %d reported %d failed of %d" % (workload, seed, res["failed"], res["attempted"]))
    return {k: v["value"] for k, v in res["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if not a:
        return 0.0
    return (a - b) / a if better == "higher" else (b - a) / a


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated (default: every workload in BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=10, help="runs per set (at least 2)")
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]

    ok = steady = True
    for w in workloads:
        runs = {"A": [], "B": []}
        for i in range(args.runs):
            for s in ("AB" if i % 2 == 0 else "BA"):
                runs[s].append(run_once(bench["command"], w, SEED_BASE + i, seconds))
        print("\n== %s (%d runs per set, %d s each)" % (w, args.runs, seconds))
        print("%-24s %12s %12s %12s %7s  %9s %6s  verdict" % ("metric", "median", "Q1", "Q3", "spread", "B vs A", "bound"))
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            rows = {s: summary([r[name] for r in runs[s]]) for s in "AB"}
            shift = worse_by(rows["A"][0], rows["B"][0], spec["better"])
            good = shift <= bound and all(rows[s][3] <= bound for s in "AB")
            calm = all(rows[s][3] <= bound / 3 for s in "AB")
            for s in "AB":
                med, q1, q3, spread = rows[s]
                line = "%-24s %12.4f %12.4f %12.4f %6.1f%%" % ("%s [%s]" % (name, s), med, q1, q3, 100 * spread)
                if s == "B":
                    line += "  %+8.1f%% %5.0f%%  %s" % (100 * shift, 100 * bound,
                                                         "steady" if good and calm else "ok" if good else "FAIL")
                print(line)
            ok = ok and good
            steady = steady and calm
    print("\nresult:", "steady" if ok and steady else "within bounds" if ok else "OUTSIDE BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
