#!/usr/bin/env python3
"""Bench harness: runs the micro benchmarks and a scaled figure suite,
emits machine-readable JSON, and gates regressions against the committed
baseline.

Outputs (written to --out-dir, committed at tools/bench/):

  BENCH_micro.json   merged google-benchmark JSON from bench/micro_core
                     (per-op ns for the event queue, window-max queries,
                     ranking, Dijkstra, switch pipeline, TCP) and
                     bench/micro_concurrent (multi-threaded rank QPS over
                     a one-region map's published view, publish/batch
                     cost, compiled-plane metro QPS); the "benchmarks"
                     arrays are concatenated so
                     one baseline gates every micro binary.
  BENCH_suite.json   wall-clock seconds of the scaled Fig.-5 suite at
                     --jobs=1 and --jobs=N, plus a byte-identity check of
                     the two reports (the parallel engine's contract).
  BENCH_metro.json   bench/metro_sweep JSON at the smoke scale: flat and
                     two-level (sharded) arm wall clock, rank-latency
                     percentiles, decision fingerprints, and the
                     flat/sharded agreement fraction.
  BENCH_qps.json     bench/qps_serve JSON at the smoke scale: the
                     closed-loop decision-rate ceiling (aggregate QPS +
                     service-time percentiles) and one open-loop trial at
                     a fixed offered load (achieved QPS, p50/p99/p999
                     from scheduled arrivals, error count).

Modes:

  run (default)      run everything, rewrite the JSON artifacts.
  --check            run micro_core fresh and compare against the
                     committed BENCH_micro.json; exit 1 when any shared
                     benchmark regressed more than --threshold (default
                     25%) in ns/op. New benchmarks (absent from the
                     baseline) are reported but never fail the check.
                     Unless --skip-suite, also re-run the scaled suite
                     and compare total wall clock against the committed
                     BENCH_suite.json (same threshold; jobs/reps taken
                     from the baseline) — a slower-than-threshold suite
                     or a byte-identity break fails the check. Unless
                     --skip-metro, also re-run bench/metro_sweep at the
                     committed BENCH_metro.json's shape and gate total
                     wall clock, cross-arm fingerprint equality, 100%
                     flat/sharded agreement, and fingerprint determinism
                     against the baseline (fingerprints are seeded and
                     hardware-independent, so they must match exactly).
                     Unless --skip-qps, also re-run bench/qps_serve at
                     the committed BENCH_qps.json's shape and gate the
                     serving path: the fixed-load trial must stay
                     error-free, leave at most --threshold of its
                     window's arrivals backlogged (never issued), and
                     sustain the baseline's offered load (within
                     --threshold), the decision-rate ceiling may
                     not collapse (2x threshold: the ceiling is the
                     noisiest cross-machine number), and the closed-loop
                     p99 may not blow up past 4x the baseline.
  --self-test        exercise the comparison logic on synthetic data
                     (clean, regressed, and identity-broken cases) with
                     no build directory needed; used by the ctest `lint`
                     label so the gate's non-zero exit path stays tested.

Wall-clock numbers are hardware-dependent: regenerate the baseline on the
machine that will check against it (CI regenerates its own in the smoke
job's first step when the artifact is missing).

Exit status: 0 ok, 1 regression/identity failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple


# Every micro binary feeding the shared BENCH_micro.json baseline; the
# regression gate in --check covers all of them through one artifact.
MICRO_BINARIES = ("micro_core", "micro_concurrent")


def run_micro(build_dir: str, out_path: str) -> Dict:
    """Runs each micro binary and merges their google-benchmark JSON into
    one artifact (context from the first, "benchmarks" concatenated)."""
    merged: Optional[Dict] = None
    for name in MICRO_BINARIES:
        exe = os.path.join(build_dir, "bench", name)
        if not os.path.exists(exe):
            print(f"run_benches: missing {exe} (build the {name} target)",
                  file=sys.stderr)
            sys.exit(2)
        part = f"{out_path}.{name}.part"
        cmd = [exe, "--benchmark_format=json", f"--benchmark_out={part}"]
        print(f"run_benches: {' '.join(cmd)}")
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        with open(part, encoding="utf-8") as f:
            data = json.load(f)
        os.remove(part)
        if merged is None:
            merged = data
        else:
            merged["benchmarks"].extend(data["benchmarks"])
    assert merged is not None
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    return merged


def run_suite(build_dir: str, jobs: int, reps: int) -> Dict:
    """Scaled Fig.-5 run at --jobs=1 and --jobs=N: wall clock + output."""
    exe = os.path.join(build_dir, "bench", "fig5_serverless_delay")
    if not os.path.exists(exe):
        print(f"run_benches: missing {exe} (build the bench targets)",
              file=sys.stderr)
        sys.exit(2)
    result: Dict = {"bench": "fig5_serverless_delay", "reps": reps,
                    "runs": []}
    outputs: List[bytes] = []
    for j in (1, jobs):
        cmd = [exe, f"--reps={reps}", f"--jobs={j}"]
        print(f"run_benches: {' '.join(cmd)}")
        start = time.monotonic()
        proc = subprocess.run(cmd, check=True, capture_output=True)
        elapsed = time.monotonic() - start
        outputs.append(proc.stdout)
        result["runs"].append({"jobs": j,
                               "wall_seconds": round(elapsed, 3)})
    result["byte_identical"] = outputs[0] == outputs[-1]
    if len(result["runs"]) == 2 and result["runs"][1]["wall_seconds"] > 0:
        result["speedup"] = round(result["runs"][0]["wall_seconds"] /
                                  result["runs"][1]["wall_seconds"], 2)
    return result


def run_metro(build_dir: str, pods: int, tasks: int, epochs: int,
              seed: int, jobs: int) -> Dict:
    """Runs bench/metro_sweep at the given shape and returns its JSON
    report (flat vs two-level arms, fingerprints, agreement)."""
    exe = os.path.join(build_dir, "bench", "metro_sweep")
    if not os.path.exists(exe):
        print(f"run_benches: missing {exe} (build the metro_sweep target)",
              file=sys.stderr)
        sys.exit(2)
    out = "/tmp/BENCH_metro_fresh.json"
    cmd = [exe, f"--pods={pods}", f"--tasks={tasks}", f"--epochs={epochs}",
           f"--seed={seed}", f"--jobs={jobs}", f"--json={out}"]
    print(f"run_benches: {' '.join(cmd)}")
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as f:
        data = json.load(f)
    os.remove(out)
    return data


def compare_metro(baseline: Dict, fresh: Dict,
                  threshold: float) -> Tuple[List[str], int]:
    """Pure comparison (no I/O) for the metro sweep: total two-arm wall
    clock vs. baseline, the flat==sharded fingerprint contract, 100%
    agreement, and seeded-fingerprint determinism vs. the committed
    baseline. Returns (report lines, failure count)."""
    lines: List[str] = []
    failures = 0
    old = sum(a["wall_seconds"] for a in baseline["arms"])
    new = sum(a["wall_seconds"] for a in fresh["arms"])
    delta = (new - old) / old * 100.0 if old > 0 else 0.0
    verdict = "OK"
    if old > 0 and new > old * (1.0 + threshold):
        verdict = "REGRESSION"
        failures += 1
    lines.append(f"  {verdict:<9} metro total: {old:.3f}s -> {new:.3f}s "
                 f"({delta:+.1f}%)")
    prints = {a["arm"]: a["fingerprint"] for a in fresh["arms"]}
    if len(set(prints.values())) != 1:
        lines.append(f"  IDENTITY  two-level decisions diverged from flat: "
                     f"{prints}")
        failures += 1
    if fresh.get("agreement", 0.0) < 1.0:
        lines.append(f"  AGREEMENT flat/sharded agreement "
                     f"{fresh.get('agreement', 0.0):.4f} < 1.0")
        failures += 1
    base_prints = {a["arm"]: a["fingerprint"] for a in baseline["arms"]}
    for arm, fp in base_prints.items():
        if arm in prints and prints[arm] != fp:
            lines.append(f"  DETERMINISM {arm} fingerprint drifted from "
                         f"baseline: {fp} -> {prints[arm]}")
            failures += 1
    return lines, failures


def check_metro(build_dir: str, baseline_path: str, threshold: float,
                jobs: int) -> int:
    """Re-run the metro sweep at the baseline's shape/seed and gate wall
    clock, fingerprints, and agreement against the committed numbers."""
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)
    fresh = run_metro(build_dir, baseline["pods"], baseline["tasks"],
                      baseline["epochs"], baseline["seed"], jobs)
    lines, failures = compare_metro(baseline, fresh, threshold)
    for line in lines:
        print(line)
    if failures:
        print(f"run_benches: metro check failed ({failures} failure(s), "
              f"threshold {threshold * 100:.0f}%)", file=sys.stderr)
        return 1
    print("run_benches: metro within threshold, fingerprints exact")
    return 0


def run_qps(build_dir: str, pods: int, threads: int, seconds: float,
            offered: float, seed: int) -> Dict:
    """Runs bench/qps_serve at the given shape and returns its JSON
    report (closed-loop ceiling + fixed open-loop trial)."""
    exe = os.path.join(build_dir, "bench", "qps_serve")
    if not os.path.exists(exe):
        print(f"run_benches: missing {exe} (build the qps_serve target)",
              file=sys.stderr)
        sys.exit(2)
    out = "/tmp/BENCH_qps_fresh.json"
    cmd = [exe, f"--pods={pods}", f"--threads={threads}",
           f"--seconds={seconds}", f"--offered={offered}", f"--seed={seed}",
           f"--json={out}"]
    print(f"run_benches: {' '.join(cmd)}")
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as f:
        data = json.load(f)
    os.remove(out)
    return data


def compare_qps(baseline: Dict, fresh: Dict,
                threshold: float) -> Tuple[List[str], int]:
    """Pure comparison (no I/O) for the serving path. The open-loop p99
    is dominated by host scheduling jitter on shared runners, so the
    latency gate uses the closed-loop (service-time) histogram; the
    throughput gate uses the offered load — a config constant — rather
    than a machine-measured number. Returns (report lines, failures)."""
    lines: List[str] = []
    failures = 0
    fixed = fresh.get("fixed", {})
    if fixed.get("errors", 0) > 0:
        lines.append(f"  ERRORS    fixed trial returned "
                     f"{fixed['errors']} serve/decode error(s)")
        failures += 1
    offered = fixed.get("offered_qps", 0.0)
    achieved = fixed.get("achieved_qps", 0.0)
    verdict = "OK"
    if offered > 0 and achieved < offered * (1.0 - threshold):
        verdict = "THROUGHPUT"
        failures += 1
    lines.append(f"  {verdict:<9} fixed load: {achieved:.0f} / "
                 f"{offered:.0f} qps offered")
    # An overloaded open-loop trial issues none of its window's arrivals
    # (it spends the window draining the warmup's), so it shows as a
    # backlog, not as errors: gate the unissued share of the window.
    backlogged = fixed.get("backlogged", 0)
    scheduled = fixed.get("completed", 0) + backlogged
    if backlogged > threshold * scheduled:
        lines.append(f"  BACKLOG   fixed trial never issued {backlogged} of "
                     f"{scheduled} arrivals scheduled in its window")
        failures += 1
    old_ceiling = baseline.get("ceiling_qps", 0.0)
    new_ceiling = fresh.get("ceiling_qps", 0.0)
    delta = ((new_ceiling - old_ceiling) / old_ceiling * 100.0
             if old_ceiling > 0 else 0.0)
    verdict = "OK"
    if old_ceiling > 0 and new_ceiling < old_ceiling * (1.0 - 2 * threshold):
        verdict = "CEILING"
        failures += 1
    lines.append(f"  {verdict:<9} decision-rate ceiling: {old_ceiling:.0f} "
                 f"-> {new_ceiling:.0f} qps ({delta:+.1f}%)")
    old_p99 = baseline.get("ceiling", {}).get("p99_ns", 0.0)
    new_p99 = fresh.get("ceiling", {}).get("p99_ns", 0.0)
    verdict = "OK"
    if old_p99 > 0 and new_p99 > 4.0 * old_p99:
        verdict = "LATENCY"
        failures += 1
    lines.append(f"  {verdict:<9} closed-loop p99: {old_p99:.0f} -> "
                 f"{new_p99:.0f} ns")
    return lines, failures


def check_qps(build_dir: str, baseline_path: str, threshold: float) -> int:
    """Re-run qps_serve at the baseline's shape/seed and gate throughput,
    ceiling, and service-time p99 against the committed numbers."""
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)
    fresh = run_qps(build_dir, baseline["pods"], baseline["threads"],
                    baseline["seconds"],
                    baseline["fixed"]["offered_qps"], baseline["seed"])
    lines, failures = compare_qps(baseline, fresh, threshold)
    for line in lines:
        print(line)
    if failures:
        print(f"run_benches: qps check failed ({failures} failure(s), "
              f"threshold {threshold * 100:.0f}%)", file=sys.stderr)
        return 1
    print("run_benches: serving path within threshold")
    return 0


def compare_micro(baseline: Dict, fresh: Dict,
                  threshold: float) -> Tuple[List[str], int]:
    """Pure comparison (no I/O): per-benchmark ns/op vs. baseline.
    Returns (report lines, regression count)."""
    base = {b["name"]: b for b in baseline["benchmarks"]}
    lines: List[str] = []
    regressions = 0
    for bench in fresh["benchmarks"]:
        name = bench["name"]
        if name not in base:
            lines.append(f"  NEW       {name}: {bench['real_time']:.1f} "
                         f"{bench['time_unit']} (no baseline)")
            continue
        old = base[name]["real_time"]
        new = bench["real_time"]
        delta = (new - old) / old * 100.0
        verdict = "OK"
        if new > old * (1.0 + threshold):
            verdict = "REGRESSION"
            regressions += 1
        lines.append(f"  {verdict:<9} {name}: {old:.1f} -> {new:.1f} "
                     f"{bench['time_unit']} ({delta:+.1f}%)")
    return lines, regressions


def compare_suite(baseline: Dict, fresh: Dict,
                  threshold: float) -> Tuple[List[str], int]:
    """Pure comparison (no I/O): total suite wall clock vs. baseline plus
    the serial/parallel byte-identity contract. Returns (lines, failures)."""
    lines: List[str] = []
    failures = 0
    old = sum(r["wall_seconds"] for r in baseline["runs"])
    new = sum(r["wall_seconds"] for r in fresh["runs"])
    delta = (new - old) / old * 100.0 if old > 0 else 0.0
    verdict = "OK"
    if old > 0 and new > old * (1.0 + threshold):
        verdict = "REGRESSION"
        failures += 1
    lines.append(f"  {verdict:<9} suite total: {old:.3f}s -> {new:.3f}s "
                 f"({delta:+.1f}%)")
    if not fresh.get("byte_identical", False):
        lines.append("  IDENTITY  parallel output diverged from serial")
        failures += 1
    return lines, failures


def check_micro(build_dir: str, baseline_path: str,
                threshold: float) -> int:
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)
    fresh = run_micro(build_dir, "/tmp/BENCH_micro_check.json")
    lines, regressions = compare_micro(baseline, fresh, threshold)
    for line in lines:
        print(line)
    if regressions:
        print(f"run_benches: {regressions} benchmark(s) regressed more "
              f"than {threshold * 100:.0f}%", file=sys.stderr)
        return 1
    print("run_benches: no micro regressions beyond threshold")
    return 0


def check_suite(build_dir: str, baseline_path: str,
                threshold: float) -> int:
    """Re-run the scaled suite at the baseline's jobs/reps and gate the
    total wall clock (and byte identity) against the committed numbers."""
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)
    jobs = max(r["jobs"] for r in baseline["runs"])
    reps = baseline.get("reps", 2)
    fresh = run_suite(build_dir, jobs, reps)
    lines, failures = compare_suite(baseline, fresh, threshold)
    for line in lines:
        print(line)
    if failures:
        print(f"run_benches: suite check failed ({failures} failure(s), "
              f"threshold {threshold * 100:.0f}%)", file=sys.stderr)
        return 1
    print("run_benches: suite within threshold, byte-identical")
    return 0


def run_self_test() -> int:
    """Synthetic-data regression suite for the comparison logic: the gates
    must fail on regressions/identity breaks and pass on clean runs."""
    micro_base = {"benchmarks": [
        {"name": "BM_EventQueue", "real_time": 100.0, "time_unit": "ns"},
        {"name": "BM_Ranking", "real_time": 200.0, "time_unit": "ns"},
    ]}
    micro_clean = {"benchmarks": [
        {"name": "BM_EventQueue", "real_time": 110.0, "time_unit": "ns"},
        {"name": "BM_Ranking", "real_time": 190.0, "time_unit": "ns"},
        {"name": "BM_Brand_New", "real_time": 50.0, "time_unit": "ns"},
    ]}
    micro_bad = {"benchmarks": [
        {"name": "BM_EventQueue", "real_time": 130.0, "time_unit": "ns"},
        {"name": "BM_Ranking", "real_time": 200.0, "time_unit": "ns"},
    ]}
    # Threaded QPS rows gate exactly like any other benchmark: the merged
    # baseline keys on the full google-benchmark name (threads suffix
    # included), and slower real_time per rank = lower QPS.
    qps_base = {"benchmarks": [
        {"name": "BM_RankQpsSnapshot/real_time/threads:5",
         "real_time": 500.0, "time_unit": "ns"},
    ]}
    qps_bad = {"benchmarks": [
        {"name": "BM_RankQpsSnapshot/real_time/threads:5",
         "real_time": 700.0, "time_unit": "ns"},
    ]}
    suite_base = {"runs": [{"jobs": 1, "wall_seconds": 10.0},
                           {"jobs": 2, "wall_seconds": 6.0}],
                  "byte_identical": True}
    suite_clean = {"runs": [{"jobs": 1, "wall_seconds": 10.5},
                            {"jobs": 2, "wall_seconds": 6.2}],
                   "byte_identical": True}
    suite_slow = {"runs": [{"jobs": 1, "wall_seconds": 15.0},
                           {"jobs": 2, "wall_seconds": 9.0}],
                  "byte_identical": True}
    suite_diverged = {"runs": [{"jobs": 1, "wall_seconds": 10.0},
                               {"jobs": 2, "wall_seconds": 6.0}],
                      "byte_identical": False}
    metro_base = {"arms": [
        {"arm": "flat", "wall_seconds": 8.0, "fingerprint": "0xaa"},
        {"arm": "sharded", "wall_seconds": 2.0, "fingerprint": "0xaa"},
    ], "agreement": 1.0}
    metro_clean = {"arms": [
        {"arm": "flat", "wall_seconds": 8.4, "fingerprint": "0xaa"},
        {"arm": "sharded", "wall_seconds": 2.1, "fingerprint": "0xaa"},
    ], "agreement": 1.0}
    metro_slow = {"arms": [
        {"arm": "flat", "wall_seconds": 12.0, "fingerprint": "0xaa"},
        {"arm": "sharded", "wall_seconds": 3.5, "fingerprint": "0xaa"},
    ], "agreement": 1.0}
    metro_split = {"arms": [
        {"arm": "flat", "wall_seconds": 8.0, "fingerprint": "0xaa"},
        {"arm": "sharded", "wall_seconds": 2.0, "fingerprint": "0xbb"},
    ], "agreement": 0.97}
    metro_drift = {"arms": [
        {"arm": "flat", "wall_seconds": 8.0, "fingerprint": "0xcc"},
        {"arm": "sharded", "wall_seconds": 2.0, "fingerprint": "0xcc"},
    ], "agreement": 1.0}
    serve_base = {"ceiling_qps": 400000.0,
                  "ceiling": {"p99_ns": 9000.0},
                "fixed": {"offered_qps": 100000.0,
                          "achieved_qps": 100000.0, "errors": 0,
                          "p99_ns": 200000.0}}
    serve_clean = {"ceiling_qps": 350000.0,
                 "ceiling": {"p99_ns": 12000.0},
                 "fixed": {"offered_qps": 100000.0,
                           "achieved_qps": 99000.0, "errors": 0,
                           "completed": 99000, "backlogged": 1,
                           "p99_ns": 900000.0}}
    serve_overloaded = {"ceiling_qps": 350000.0,
                        "ceiling": {"p99_ns": 9000.0},
                        "fixed": {"offered_qps": 100000.0,
                                  "achieved_qps": 0.0, "errors": 0,
                                  "completed": 0, "backlogged": 100000,
                                  "p99_ns": 0.0}}
    serve_starved = {"ceiling_qps": 380000.0,
                   "ceiling": {"p99_ns": 9500.0},
                   "fixed": {"offered_qps": 100000.0,
                             "achieved_qps": 60000.0, "errors": 0,
                             "p99_ns": 200000.0}}
    serve_collapsed = {"ceiling_qps": 150000.0,
                     "ceiling": {"p99_ns": 9000.0},
                     "fixed": {"offered_qps": 100000.0,
                               "achieved_qps": 100000.0, "errors": 0,
                               "p99_ns": 200000.0}}
    serve_blowup = {"ceiling_qps": 400000.0,
                  "ceiling": {"p99_ns": 50000.0},
                  "fixed": {"offered_qps": 100000.0,
                            "achieved_qps": 100000.0, "errors": 0,
                            "p99_ns": 200000.0}}
    serve_errors = {"ceiling_qps": 400000.0,
                  "ceiling": {"p99_ns": 9000.0},
                  "fixed": {"offered_qps": 100000.0,
                            "achieved_qps": 100000.0, "errors": 3,
                            "p99_ns": 200000.0}}

    cases = (
        ("micro clean run passes",
         compare_micro(micro_base, micro_clean, 0.25)[1] == 0),
        ("micro 30% regression fails",
         compare_micro(micro_base, micro_bad, 0.25)[1] == 1),
        ("micro new benchmark never fails",
         compare_micro(micro_base, micro_clean, 0.0)[1] == 1),  # 10% > 0%
        ("threaded QPS regression fails",
         compare_micro(qps_base, qps_bad, 0.25)[1] == 1),
        ("suite clean run passes",
         compare_suite(suite_base, suite_clean, 0.25)[1] == 0),
        ("suite 50% wall-clock regression fails",
         compare_suite(suite_base, suite_slow, 0.25)[1] == 1),
        ("suite byte-identity break fails",
         compare_suite(suite_base, suite_diverged, 0.25)[1] == 1),
        ("metro clean run passes",
         compare_metro(metro_base, metro_clean, 0.25)[1] == 0),
        ("metro 50% wall-clock regression fails",
         compare_metro(metro_base, metro_slow, 0.25)[1] == 1),
        ("metro arm fingerprint split + agreement drop fails",
         compare_metro(metro_base, metro_split, 0.25)[1] >= 2),
        ("metro seeded-fingerprint drift from baseline fails",
         compare_metro(metro_base, metro_drift, 0.25)[1] == 2),
        ("qps clean run passes (ceiling noise + open-loop jitter ok)",
         compare_qps(serve_base, serve_clean, 0.25)[1] == 0),
        ("qps starved fixed load fails",
         compare_qps(serve_base, serve_starved, 0.25)[1] == 1),
        ("qps ceiling collapse fails",
         compare_qps(serve_base, serve_collapsed, 0.25)[1] == 1),
        ("qps closed-loop p99 blow-up fails",
         compare_qps(serve_base, serve_blowup, 0.25)[1] == 1),
        ("qps serve/decode errors fail",
         compare_qps(serve_base, serve_errors, 0.25)[1] == 1),
        ("qps overloaded fixed trial (achieved 0, all backlogged) fails",
         compare_qps(serve_base, serve_overloaded, 0.25)[1] == 2),
        ("qps backlog gate holds even with a lax throughput threshold",
         compare_qps(serve_base, serve_overloaded, 0.99)[1] >= 1),
    )
    failures = 0
    for name, ok in cases:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    if failures:
        print(f"run_benches self-test: FAIL ({failures} case(s))",
              file=sys.stderr)
        return 1
    print(f"run_benches self-test: OK ({len(cases)} case(s))")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run_benches", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out-dir",
                        default=os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh micro run to the committed "
                             "baseline instead of rewriting artifacts")
    parser.add_argument("--baseline", default=None,
                        help="baseline for --check (default: "
                             "<out-dir>/BENCH_micro.json)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional ns/op regression (0.25 = "
                             "25%%)")
    parser.add_argument("--jobs", type=int,
                        default=max(1, os.cpu_count() or 1),
                        help="parallel jobs for the suite run")
    parser.add_argument("--reps", type=int, default=2,
                        help="repetitions for the suite run")
    parser.add_argument("--skip-suite", action="store_true",
                        help="skip the scaled Fig.-5 suite run/check")
    parser.add_argument("--skip-metro", action="store_true",
                        help="skip the metro_sweep run/check")
    parser.add_argument("--metro-only", action="store_true",
                        help="run/check only the metro_sweep gate")
    parser.add_argument("--metro-pods", type=int, default=4,
                        help="metro pods when (re)generating the baseline")
    parser.add_argument("--metro-tasks", type=int, default=200000,
                        help="metro tasks when (re)generating the baseline")
    parser.add_argument("--metro-epochs", type=int, default=40,
                        help="metro epochs when (re)generating the baseline")
    parser.add_argument("--metro-seed", type=int, default=42,
                        help="metro seed when (re)generating the baseline")
    parser.add_argument("--skip-qps", action="store_true",
                        help="skip the qps_serve run/check")
    parser.add_argument("--qps-only", action="store_true",
                        help="run/check only the qps_serve gate")
    parser.add_argument("--qps-pods", type=int, default=4,
                        help="qps pods when (re)generating the baseline")
    parser.add_argument("--qps-threads", type=int, default=1,
                        help="qps producer threads when (re)generating the "
                             "baseline")
    parser.add_argument("--qps-seconds", type=float, default=1.0,
                        help="qps window seconds when (re)generating the "
                             "baseline")
    parser.add_argument("--qps-offered", type=float, default=100000.0,
                        help="qps offered load when (re)generating the "
                             "baseline")
    parser.add_argument("--qps-seed", type=int, default=42,
                        help="qps seed when (re)generating the baseline")
    parser.add_argument("--self-test", action="store_true",
                        help="run the synthetic comparison-logic suite "
                             "(no build directory required)")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test()

    baseline = args.baseline or os.path.join(args.out_dir,
                                             "BENCH_micro.json")
    metro_baseline = os.path.join(args.out_dir, "BENCH_metro.json")
    qps_baseline = os.path.join(args.out_dir, "BENCH_qps.json")
    do_micro = not args.metro_only and not args.qps_only
    do_metro = args.metro_only or (not args.skip_metro and
                                   not args.qps_only)
    do_qps = args.qps_only or (not args.skip_qps and not args.metro_only)
    if args.check:
        rc = 0
        if do_micro:
            if not os.path.exists(baseline):
                print(f"run_benches: no baseline at {baseline}; run "
                      "without --check once and commit the artifact",
                      file=sys.stderr)
                return 2
            rc = check_micro(args.build_dir, baseline, args.threshold)
            if not args.skip_suite:
                suite_baseline = os.path.join(args.out_dir,
                                              "BENCH_suite.json")
                if not os.path.exists(suite_baseline):
                    print(f"run_benches: no suite baseline at "
                          f"{suite_baseline}; run without --check once and "
                          "commit the artifact", file=sys.stderr)
                    return 2
                rc = max(rc, check_suite(args.build_dir, suite_baseline,
                                         args.threshold))
        if do_metro:
            if not os.path.exists(metro_baseline):
                print(f"run_benches: no metro baseline at {metro_baseline}; "
                      "run without --check once and commit the artifact",
                      file=sys.stderr)
                return 2
            rc = max(rc, check_metro(args.build_dir, metro_baseline,
                                     args.threshold, args.jobs))
        if do_qps:
            if not os.path.exists(qps_baseline):
                print(f"run_benches: no qps baseline at {qps_baseline}; "
                      "run without --check once and commit the artifact",
                      file=sys.stderr)
                return 2
            rc = max(rc, check_qps(args.build_dir, qps_baseline,
                                   args.threshold))
        return rc

    os.makedirs(args.out_dir, exist_ok=True)
    if do_micro:
        run_micro(args.build_dir, os.path.join(args.out_dir,
                                               "BENCH_micro.json"))
        if not args.skip_suite:
            suite = run_suite(args.build_dir, args.jobs, args.reps)
            suite_path = os.path.join(args.out_dir, "BENCH_suite.json")
            with open(suite_path, "w", encoding="utf-8") as f:
                json.dump(suite, f, indent=2)
                f.write("\n")
            print(f"run_benches: wrote {suite_path}")
            if not suite["byte_identical"]:
                print("run_benches: PARALLEL OUTPUT DIVERGED FROM SERIAL",
                      file=sys.stderr)
                return 1
    if do_metro:
        metro = run_metro(args.build_dir, args.metro_pods, args.metro_tasks,
                          args.metro_epochs, args.metro_seed, args.jobs)
        with open(metro_baseline, "w", encoding="utf-8") as f:
            json.dump(metro, f, indent=2)
            f.write("\n")
        print(f"run_benches: wrote {metro_baseline}")
        arms = {a["arm"]: a["fingerprint"] for a in metro["arms"]}
        if len(set(arms.values())) != 1 or metro.get("agreement") != 1.0:
            print("run_benches: TWO-LEVEL DECISIONS DIVERGED FROM FLAT",
                  file=sys.stderr)
            return 1
    if do_qps:
        qps = run_qps(args.build_dir, args.qps_pods, args.qps_threads,
                      args.qps_seconds, args.qps_offered, args.qps_seed)
        with open(qps_baseline, "w", encoding="utf-8") as f:
            json.dump(qps, f, indent=2)
            f.write("\n")
        print(f"run_benches: wrote {qps_baseline}")
        if qps.get("fixed", {}).get("errors", 0) > 0:
            print("run_benches: SERVING PATH RETURNED ERRORS",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
