#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures perfbench/CMakeLists.txt into .bench_build/perfbench (once),
builds the `perfbench` target, and runs it from the repository root.  Its
report goes to standard output, followed by one JSON line:

  {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

The metrics are those BENCHMARK.json lists under "end_to_end" (--trace 0) or
"per_layer" (--trace 1).  When the build fails, nothing is printed on
standard output and the exit code is 1; when a correctness check fails, the
line says "correct": false with no metrics and the exit code is 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Unix-socket paths are limited to 108 bytes, so the sharded runtime's socket
# directory lives under a short path relative to the repository root.
SOCKET_TMPDIR = os.path.join(".bench_build", "tmp")


def run_timeout_s(seconds):
    """A run measures for `seconds`; a traced one adds a lockstep sweep at
    each worker count and one repetition's overrun."""
    return 2 * seconds + 60


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
        expected = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        print(f"perfbench: cannot build or read BENCHMARK.json: {e}",
              file=sys.stderr)
        return 1

    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(ROOT, SOCKET_TMPDIR), exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout,
                              env=dict(os.environ, TMPDIR=SOCKET_TMPDIR))
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 1

    metrics = {}
    result = None
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields[:1] == ["@metric"] and len(fields) == 4:
            metrics[fields[1]] = {"value": float(fields[2]), "unit": fields[3]}
        elif fields[:1] == ["@result"] and len(fields) == 4:
            result = [int(f) for f in fields[1:]]
        else:
            print(line)
    if result is None:
        print(f"perfbench: exited {proc.returncode} without a result",
              file=sys.stderr)
        return 1
    correct, attempted, failed = result
    if attempted < 1:
        print("perfbench: nothing was attempted", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not correct:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    if sorted(metrics) != sorted(expected):
        print("perfbench: printed metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(expected))}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
