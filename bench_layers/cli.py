"""Command line of the benchmark.

Three modes share one entry point:

* ``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload
  in this process and prints one JSON object as the last line of
  standard output (the driver contract; the suite spawns exactly this);
* no ``--workload`` runs the suite: every workload in a fresh
  subprocess, untraced then traced, with every metric printed by name;
* ``--compare A.json B.json`` judges two suite results by the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from bench_layers.env import pin_blas, stop_resource_tracker
from bench_layers.spec import REPO_ROOT

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench_layers",
        description="End-to-end and per-layer benchmark of the FL round loop.",
    )
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=7, help="input seed (default 7)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="seconds each workload measures (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="with --workload: 0 end-to-end metrics, 1 per-layer metrics",
    )
    parser.add_argument(
        "--traced", action="store_true", help="suite: the traced pass only"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="1 warm-up and 2 repeats per workload; checks the harness, not the program",
    )
    parser.add_argument("--out", help="suite: also write the results as JSON here")
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("A.json", "B.json"),
        help="judge result set B against A by the bounds of BENCHMARK.json",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        from bench_layers.compare import compare_files

        return compare_files(*args.compare)

    source = os.path.join(REPO_ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"bench_layers: no program to measure under {source}", file=sys.stderr)
        return 2
    # Both must happen before numpy or repro is first imported.
    pin_blas()
    sys.path.insert(0, source)

    if args.workload is None:
        from bench_layers.suite import run_suite

        return run_suite(args)

    from bench_layers.harness import FULL, SMOKE, contract_line, measure
    from bench_layers.spec import load_benchmark_json
    from bench_layers.workloads import WORKLOADS

    if args.workload not in {workload.name for workload in WORKLOADS}:
        print(f"bench_layers: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    plan = SMOKE if args.smoke else FULL
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(load_benchmark_json()["run_seconds"])
    if args.trace:
        from bench_layers.layers import trace

        result = trace(args.workload, args.seed, plan)
    else:
        result = measure(args.workload, args.seed, seconds, plan)
    stop_resource_tracker()
    # Detail for the suite on the line before; the contract on the last.
    print(json.dumps(result))
    print(json.dumps(contract_line(result)))
    return 0
