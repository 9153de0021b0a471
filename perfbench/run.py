#!/usr/bin/env python3
"""Builds the scheduler benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the root of a checkout. The harness (perfbench/src) and the
repository's libraries (src/) are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); an
up-to-date build is a no-op. The workload runs in its own process, whose
standard output is passed through: its last line is the result object
{"correct", "attempted", "failed", "metrics"}. The result's metric names
are checked against BENCHMARK.json before it is passed on.

Exit codes: 0 = a clean run; 2 = bad arguments or a checkout the
benchmark cannot build from; anything else = the build or the workload
failed (a workload with a failed operation or check prints its counts and
exits 1).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_warm_metro", "serve_small_mt", "churn_metro", "paper_fig5")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


class StrictParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        fail(2, message)


def parse_args(argv):
    p = StrictParser(prog="perfbench/run.py", allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes with every check on (self-tests)")
    args = p.parse_args(argv)
    if args.seed < 0:
        fail(2, "--seed must be a non-negative integer")
    if not args.seconds > 0:
        fail(2, "--seconds must be positive")
    return args


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the harness; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "no library sources under %s/src: run from a full checkout"
             % ROOT)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(4, "build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail(4, "build step %s exited %d" % (" ".join(cmd[:2]),
                                                  done.returncode))
    return out


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    kind = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    declared = declared_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        raise ValueError("metrics differ from BENCHMARK.json: %s"
                         % sorted(set(got.items()) ^ set(declared.items())))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")


def main(argv):
    args = parse_args(argv)
    out = build()
    cmd = [os.path.join(out, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail(5, "%s did not finish within %d s" % (args.workload,
                                                   RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    if lines:
        try:
            check_result(lines[-1], args.trace == 1)
        except (ValueError, KeyError, TypeError) as e:
            sys.stdout.write(done.stdout)
            fail(6, "malformed result line: %s" % e)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail(done.returncode if done.returncode > 0 else 7,
             "%s exited with code %d" % (args.workload, done.returncode))
    if not lines:
        fail(6, "%s printed no result" % args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
