#!/usr/bin/env python3
"""Builds and runs the MiniCrypt client benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is compiled from the
checkout's sources (perfbench/ plus src/) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; traced runs write their spans to
.bench_build/traces/. The last line of standard output is the result JSON
(see perfbench/README.md); the exit code is 0 only when every answer was
correct and every regime guard held.

Extra flags, used by perfbench/selftest.py: --scale tiny runs the workload
at 1/16 of its data size; --plant-wrong-value corrupts one answer before the
oracle sees it.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("generic_read_mem", "generic_read_spill", "generic_update_mix", "append_ingest")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"{ROOT} has no src/: the benchmark needs a full checkout")
        return None
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    # One build at a time, even if several runs start together.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "-j", "4"])
        for step in steps:
            # Build chatter goes to stderr: stdout carries only the result.
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(step))
                return None
    return os.path.join(out, "mc_client_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--plant-wrong-value", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    binary = build()
    if binary is None:
        return 2
    trace_dir = os.path.join(build_root(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--trace-dir", trace_dir]
    if args.plant_wrong_value:
        cmd.append("--plant-wrong-value")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        log(f"benchmark printed no result (exit {proc.returncode})")
        return proc.returncode or 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == 0 and not result.get("correct"):
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
