"""``--compare A.json B.json``: judge result set B against A.

One row per (end-to-end metric, workload):

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``regressed`` — worse by more than the bound, and the two
  inter-quartile ranges do not overlap;
* ``unresolved`` — worse by more than the bound, but they overlap, so
  the run-to-run spread is too wide to tell.

Bounds on host metrics are the relative ones in ``BENCHMARK.json``.
Simulated metrics do not depend on host speed, so between two sets of
the *same seed* they must agree to 1e-9 relative: the looser bounds in
``BENCHMARK.json`` only exist because the driver compares medians over
different seeds. ``failed_share`` may not rise at all and
``final_accuracy`` may not drop by more than 0.005 absolute.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterator, NamedTuple, Optional

from bench_layers.spec import END_TO_END, REPORT_ONLY, load_benchmark_json

__all__ = ["Row", "compare", "compare_files", "verdict"]

SAME_SEED_RELATIVE = {
    "sim_delay_s": 1e-9,
    "sim_energy_j": 1e-9,
    "dvfs_saving_frac": 1e-9,
}
ABSOLUTE = {"failed_share": 0.0, "final_accuracy": 0.005}


class Row(NamedTuple):
    metric: str
    workload: str
    a: float
    b: float
    worse_by: float
    bound: float
    verdict: str


def verdict(
    a: Dict, b: Dict, better: str, bound: float, absolute: bool = False
) -> tuple:
    """``(worse_by, verdict)`` for one metric of one workload.

    ``a`` and ``b`` carry ``value`` and optionally ``p25``/``p75``.
    ``worse_by`` is how much worse B is than A: a share of A's median,
    or an absolute difference when ``absolute``; negative means better.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"])
    if not absolute and worse_by:
        worse_by = (
            worse_by / abs(a["value"])
            if a["value"]
            else math.copysign(math.inf, worse_by)
        )
    if worse_by <= bound:
        return worse_by, "ok"
    a_low, a_high = a.get("p25", a["value"]), a.get("p75", a["value"])
    b_low, b_high = b.get("p25", b["value"]), b.get("p75", b["value"])
    overlap = a_low <= b_high and b_low <= a_high
    return worse_by, "unresolved" if overlap else "regressed"


def _entry(result: Dict, metric: str) -> Optional[Dict]:
    if metric in result["metrics"]:
        return result["metrics"][metric]
    value = result.get(metric)
    return None if value is None else {"value": value}


def compare(a: Dict, b: Dict, bounds: Dict[str, float]) -> Iterator[Row]:
    """Rows for every (end-to-end metric, workload) both sets hold."""
    same_seed = a.get("seed") == b.get("seed")
    for metric in END_TO_END + REPORT_ONLY:
        absolute = metric.name in ABSOLUTE
        bound = ABSOLUTE[metric.name] if absolute else bounds[metric.name]
        if same_seed and metric.name in SAME_SEED_RELATIVE:
            bound = SAME_SEED_RELATIVE[metric.name]
        for workload, result_a in a["workloads"].items():
            result_b = b["workloads"].get(workload)
            if result_b is None:
                continue
            entry_a, entry_b = _entry(result_a, metric.name), _entry(result_b, metric.name)
            if entry_a is None or entry_b is None:
                continue  # final_accuracy on sched_q100k
            worse_by, outcome = verdict(entry_a, entry_b, metric.better, bound, absolute)
            yield Row(
                metric.name,
                workload,
                entry_a["value"],
                entry_b["value"],
                worse_by,
                bound,
                outcome,
            )


def compare_files(path_a: str, path_b: str) -> int:
    """Print the comparison table; exit code 1 on any ``regressed``."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    bounds = {
        entry["name"]: entry["bound"] for entry in load_benchmark_json()["end_to_end"]
    }
    print(f"{'metric':<18}{'workload':<18}{'A':>14}{'B':>14}{'worse by':>11}{'bound':>9}  verdict")
    regressed = 0
    for row in compare(a, b, bounds):
        regressed += row.verdict == "regressed"
        print(
            f"{row.metric:<18}{row.workload:<18}{row.a:>14.6g}{row.b:>14.6g}"
            f"{row.worse_by:>+11.4f}{row.bound:>9.2g}  {row.verdict}"
        )
    print(f"{regressed} regressed")
    return 1 if regressed else 0
