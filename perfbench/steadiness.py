#!/usr/bin/env python3
"""Steadiness study of the benchmark: repeated runs, one seed each.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
        [--json out.json]
    python3 perfbench/steadiness.py --compare set1.json set2.json

Runs `perfbench/run.py --trace 0` once per (workload, seed), seeds
1 .. runs, for BENCHMARK.json's run_seconds, and prints per workload and metric the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
quartile distance as a share of the median, next to the metric's bound
in BENCHMARK.json. Also checks that the share of failed operations is the
same in every run. --json keeps every value for later comparison of two
sets taken apart in time (--compare a.json b.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    wall = time.monotonic() - t0
    if done.returncode != 0 or not done.stdout:
        print("%s seed %d exited %d" % (workload, seed, done.returncode),
              flush=True)
        return None
    result = json.loads(done.stdout.splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def summarize(runs, bounds):
    for workload, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        print("%s: %d runs, failed share %s, run wall %.0f-%.0f s" % (
            workload, len(results), sorted(shares),
            min(r["wall_s"] for r in results),
            max(r["wall_s"] for r in results)))
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            if min(vals) == max(vals) == 0:
                continue
            med, q1, q3, share = spread(vals)
            bound = bounds.get(name)
            print("  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "IQR/median %.3f%s" % (
                      name, med, q1, q3, share,
                      "" if bound is None else "  (bound %.2f)" % bound))


def compare(a_path, b_path, bounds):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for workload in a:
        print(workload)
        for name in a[workload][0]["metrics"]:
            if name not in bounds:
                continue
            ma = statistics.median(r["metrics"][name]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[workload])
            worse = (mb - ma) / ma if better[name] == "lower" else (ma - mb) / ma
            print("  %-14s set1 %-12.6g set2 %-12.6g worse by %+.3f (bound %.2f)"
                  % (name, ma, mb, worse, bounds[name]))


def main():
    p = argparse.ArgumentParser(allow_abbrev=False)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--json", default="")
    p.add_argument("--compare", nargs=2, metavar=("SET1", "SET2"))
    args = p.parse_args()
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.compare:
        compare(args.compare[0], args.compare[1], bounds)
        return
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in range(1, args.runs + 1):
            result = one_run(workload, seed, seconds)
            if result is not None:
                runs[workload].append(result)
            if args.json:  # kept after every run
                with open(args.json, "w") as f:
                    json.dump(runs, f, indent=1)
    summarize(runs, bounds)


if __name__ == "__main__":
    main()
