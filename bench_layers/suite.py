"""The suite: every workload in a fresh subprocess, all metrics by name.

Each workload runs as ``python3 -m bench_layers --workload NAME …`` —
the same command the driver issues — once untraced for the end-to-end
metrics and once traced for the per-layer ones. One process at a time:
the load comes from a single closed loop.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List

from bench_layers.env import BLAS_PINS
from bench_layers.spec import REPO_ROOT, REPORT_ONLY
from bench_layers.workloads import WORKLOADS

__all__ = ["run_suite"]

CHILD_TIMEOUT_S = 600


def _child(workload: str, args, trace: int) -> Dict:
    """Run one workload in a subprocess; return its detail record."""
    command = [
        sys.executable,
        "-m",
        "bench_layers",
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--trace",
        str(trace),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(
        command,
        cwd=REPO_ROOT,
        env=dict(os.environ, **BLAS_PINS),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    detail, contract = completed.stdout.strip().splitlines()[-2:]
    json.loads(contract)  # the driver's line must parse too
    return json.loads(detail)


def _print_end_to_end(result: Dict) -> None:
    flag = "  [noisy: host speed IQR > 10 % during the run]" if result["noisy"] else ""
    print(
        f"\n== {result['workload']}  seed {result['seed']}  "
        f"{result['attempted']} operations, {result['failed']} failed{flag}"
    )
    for name, entry in result["metrics"].items():
        statistic = "fastest" if name == "setup_s" else "median"
        spread = (
            f"  ({statistic} of {entry['n']}; p25 {entry['p25']:.6g}, p75 {entry['p75']:.6g})"
            if entry["n"] > 1
            else ""
        )
        print(f"  {name:<20}{entry['value']:>16.6g} {entry['unit']}{spread}")
    for metric in REPORT_ONLY:
        value = result[metric.name]
        if value is not None:
            print(f"  {metric.name:<20}{value:>16.6g} {metric.unit}")
    raw, host = result["raw_rounds_per_s"], result["calibration_s"]
    print(
        f"  as the clock saw it: {raw['value']:.6g} rounds/s "
        f"(p25 {raw['p25']:.6g}, p75 {raw['p75']:.6g}); calibration kernel "
        f"{host['value'] * 1e3:.1f} ms (p25 {host['p25'] * 1e3:.1f}, p75 {host['p75'] * 1e3:.1f})"
    )
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def _print_per_layer(result: Dict) -> None:
    print(
        f"\n-- {result['workload']} traced: {result['attempted']} operations, "
        f"{result['failed']} failed; spans in {result['spans_path']}"
    )
    for name, entry in result["metrics"].items():
        print(f"  {name:<44}{entry['value']:>16.6g} {entry['unit']}")
    print("  self time, share of the traced run:")
    ranked = sorted(result["self_time_share"].items(), key=lambda item: -item[1])
    for name, share in ranked:
        print(f"    {name:<42}{share:>8.1%}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def run_suite(args) -> int:
    """Run and print every workload; exit code 1 if any operation failed."""
    results: Dict[str, Dict] = {}
    failed = 0
    passes: List[int] = [1] if args.traced else [0, 1]
    for trace in passes:
        for workload in WORKLOADS:
            result = _child(workload.name, args, trace)
            failed += result["failed"]
            if trace:
                _print_per_layer(result)
                results.setdefault(workload.name, {})["per_layer"] = result
            else:
                _print_end_to_end(result)
                results[workload.name] = result
            sys.stdout.flush()
    print(f"\n{failed} failed operations")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "workloads": results}, handle, indent=1)
            handle.write("\n")
    return 1 if failed else 0
