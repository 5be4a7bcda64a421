#!/usr/bin/env python3
"""Self-test of the MiniCrypt client benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny scale (1/16 of the data, one
second), untraced and traced, through perfbench/run.py, and checks that:
  * each run exits 0 with correct=true and prints the result contract
    (exactly correct / attempted / failed / metrics);
  * every end-to-end metric (untraced) or per-layer metric (traced) named in
    BENCHMARK.json is emitted, with BENCHMARK.json's unit and a finite value;
  * a deliberately planted wrong value (--plant-wrong-value) is caught by the
    oracle: the run reports correct=false and exits non-zero.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload, trace, plant=False):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    if plant:
        cmd.append("--plant-wrong-value")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            check(result is not None, f"{where}: no result line\n{proc.stderr}")
            check(proc.returncode == 0 and result["correct"] is True,
                  f"{where}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  f"{where}: attempted {result['attempted']}")
            check(isinstance(result["failed"], int), f"{where}: failed {result['failed']}")
            metrics = result["metrics"]
            check(set(metrics) == set(expected[trace]),
                  f"{where}: metric names differ: missing "
                  f"{sorted(set(expected[trace]) - set(metrics))}, extra "
                  f"{sorted(set(metrics) - set(expected[trace]))}")
            for name, unit in expected[trace].items():
                value = metrics[name].get("value")
                check(metrics[name].get("unit") == unit,
                      f"{where}: {name} unit {metrics[name].get('unit')} != {unit}")
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{where}: {name} value {value}")
            print(f"ok   {where}: {len(metrics)} metrics, {result['attempted']} ops")
        proc, result = run(workload, 0, plant=True)
        check(proc.returncode != 0 and result is not None and result["correct"] is False,
              f"{workload}: planted wrong value not caught (exit {proc.returncode})")
        print(f"ok   {workload}: planted wrong value caught")
    print("selftest passed")


if __name__ == "__main__":
    main()
