#!/usr/bin/env python3
"""Compare a perf_suite BENCH_*.json run against a committed baseline.

Usage:
    check_regression.py --baseline bench/baselines/BENCH_baseline.json \
                        --current BENCH_<rev>.json [--tolerance 0.10]

Policy (see docs/PERF.md):
  * Cells are compared by normalized throughput: each run's cell throughput
    is divided by that run's calibration.memcpy_1m throughput, so a slower
    CI machine does not read as a code regression.
  * A cell fails if its normalized throughput drops by more than the
    tolerance (default 10%, override with --tolerance or MC_PERF_TOLERANCE).
  * Cells with no byte volume (mb_per_s == 0) are compared on 1/ns_per_op.
  * Latency cells (those carrying a p99_us field, emitted by load_harness)
    are exempt from the throughput gate and instead fail when current p99
    exceeds baseline p99 by more than the latency tolerance (default 50%,
    override with --latency-tolerance or MC_PERF_LATENCY_TOLERANCE; tail
    latency under open-loop load is far noisier than kernel throughput).
    Simulated media/network sleeps dominate these latencies, so they are
    compared raw, without the memcpy normalization.
  * A load_harness file (latency cells) is never compared with a
    perf_suite file (throughput cells): exit 3.
  * Cells present in only one file are reported but do not fail the gate
    (new cells need a baseline refresh; see docs/PERF.md).

Exit codes: 0 ok, 1 regression/gate failure, 2 usage/IO error,
3 incomparable runs (schema or suite mismatch).
"""

import argparse
import json
import os
import sys

SCHEMA = "mc-bench-v1"
CALIBRATION_CELL = "calibration.memcpy_1m"


def load_run(path):
    try:
        with open(path) as f:
            run = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if run.get("schema") != SCHEMA:
        print(f"error: {path}: schema {run.get('schema')!r} != {SCHEMA!r}",
              file=sys.stderr)
        sys.exit(3)
    cells = {c["name"]: c for c in run.get("cells", [])}
    if CALIBRATION_CELL not in cells:
        print(f"error: {path}: missing {CALIBRATION_CELL}", file=sys.stderr)
        sys.exit(3)
    return cells


def suite(cells):
    """load_harness files carry p99_us latency cells; perf_suite files do not."""
    return "load_harness" if any("p99_us" in c for c in cells.values()) else "perf_suite"


def throughput(cell):
    """Comparable per-cell throughput: MB/s, or ops/s for byte-less cells."""
    if cell.get("mb_per_s", 0) > 0:
        return cell["mb_per_s"]
    ns = cell.get("ns_per_op", 0)
    return 1e9 / ns if ns > 0 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("MC_PERF_TOLERANCE", "0.10")),
        help="allowed fractional drop in normalized throughput (default 0.10)")
    parser.add_argument(
        "--latency-tolerance",
        type=float,
        default=float(os.environ.get("MC_PERF_LATENCY_TOLERANCE", "0.50")),
        help="allowed fractional p99 increase for latency cells (default 0.50)")
    args = parser.parse_args()

    base_cells = load_run(args.baseline)
    cur_cells = load_run(args.current)

    base_suite = suite(base_cells)
    cur_suite = suite(cur_cells)
    if base_suite != cur_suite:
        print(f"error: suite mismatch: baseline is {base_suite}, current is "
              f"{cur_suite}; refusing to compare", file=sys.stderr)
        sys.exit(3)

    base_cal = throughput(base_cells[CALIBRATION_CELL])
    cur_cal = throughput(cur_cells[CALIBRATION_CELL])
    if base_cal <= 0 or cur_cal <= 0:
        print("error: calibration cell has no throughput", file=sys.stderr)
        sys.exit(3)
    print(f"calibration: baseline {base_cal:.0f} MB/s, current {cur_cal:.0f} "
          f"MB/s (machine ratio {cur_cal / base_cal:.3f})")

    failures = []
    for name in sorted(base_cells):
        if name == CALIBRATION_CELL:
            continue
        if name not in cur_cells:
            print(f"  note: cell {name} missing from current run")
            continue
        base_p99 = base_cells[name].get("p99_us", 0)
        if base_p99 > 0:
            # Latency cell: gate the p99 tail directly (lower is better).
            cur_p99 = cur_cells[name].get("p99_us", 0)
            ratio = cur_p99 / base_p99
            status = "ok"
            if ratio > 1.0 + args.latency_tolerance:
                status = "REGRESSION"
                failures.append((name, ratio))
            print(f"  {name:32s} p99 {cur_p99:.0f}us vs {base_p99:.0f}us "
                  f"x{ratio:.3f} {status}")
            continue
        base_norm = throughput(base_cells[name]) / base_cal
        cur_norm = throughput(cur_cells[name]) / cur_cal
        if base_norm <= 0:
            continue
        ratio = cur_norm / base_norm
        status = "ok"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSION"
            failures.append((name, ratio))
        print(f"  {name:32s} normalized x{ratio:.3f} {status}")
    for name in sorted(set(cur_cells) - set(base_cells)):
        print(f"  note: new cell {name} (no baseline; refresh the baseline "
              "to gate it)")

    if failures:
        print(f"\nFAIL: {len(failures)} gate failure(s) "
              f"(tolerance {args.tolerance:.0%}):", file=sys.stderr)
        for name, ratio in failures:
            print(f"  {name}: x{ratio:.3f}", file=sys.stderr)
        sys.exit(1)
    print("\nPASS: no regressions beyond tolerance "
          f"({args.tolerance:.0%})")


if __name__ == "__main__":
    main()
