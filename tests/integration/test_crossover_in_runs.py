"""Integration: the Table-I crossover structure appears in real runs.

The paper's Section VII-C narrative is that FedCS can lead early but
HELCFL overtakes and keeps climbing. With smoothed curves this is a
crossover/dominance structure that :func:`find_crossovers` recovers from
actual training histories.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
import pytest

from repro.experiments.runner import build_environment, run_strategy
from repro.experiments.settings import ExperimentSettings


@dataclass(frozen=True)
class Crossover:
    """One lead change between two curves: after ``x``, ``leader_after``
    ("a" or "b") leads."""

    x: float
    leader_after: str


def _interp(points: Sequence[Tuple[float, float]], x: float) -> float:
    """Piecewise-linear interpolation, clamped at the ends."""
    if x <= points[0][0]:
        return points[0][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x <= x1:
            if x1 == x0:
                return y1
            t = (x - x0) / (x1 - x0)
            return y0 + t * (y1 - y0)
    return points[-1][1]


def find_crossovers(
    curve_a: Sequence[Tuple[float, float]],
    curve_b: Sequence[Tuple[float, float]],
    tolerance: float = 1e-9,
) -> List[Crossover]:
    """Lead changes between two ``(x, y)`` curves with ascending x.

    Both curves are linearly interpolated onto the union of their x
    grids; a crossover is recorded wherever the sign of ``a - b`` flips
    (ties within ``tolerance`` carry the previous sign).
    """
    grid = sorted({p[0] for p in curve_a} | {p[0] for p in curve_b})
    crossovers: List[Crossover] = []
    previous_sign = 0
    for x in grid:
        diff = _interp(curve_a, x) - _interp(curve_b, x)
        if abs(diff) <= tolerance:
            continue
        sign = 1 if diff > 0 else -1
        if previous_sign != 0 and sign != previous_sign:
            crossovers.append(
                Crossover(x=x, leader_after="a" if sign > 0 else "b")
            )
        previous_sign = sign
    return crossovers


def moving_average(values: Sequence[float], window: int) -> List[float]:
    """Trailing moving average (window clipped at the series start)."""
    arr = np.asarray(list(values), dtype=np.float64)
    return [
        float(arr[max(0, idx - window + 1) : idx + 1].mean())
        for idx in range(arr.size)
    ]


@pytest.fixture(scope="module")
def runs():
    settings = ExperimentSettings.quick(seed=7, rounds=80)
    environment = build_environment(settings, iid=False)
    return {
        name: run_strategy(name, settings, iid=False, environment=environment)
        for name in ("helcfl", "fedcs")
    }


def smoothed_curve(history, window=7):
    series = history.accuracy_series()
    times = [time for _, time, _ in series]
    accs = moving_average([acc for _, _, acc in series], window=window)
    return list(zip(times, accs))


class TestCrossoverStructure:
    def test_helcfl_dominates_eventually(self, runs):
        helcfl = smoothed_curve(runs["helcfl"])
        fedcs = smoothed_curve(runs["fedcs"])
        crossings = find_crossovers(helcfl, fedcs, tolerance=1e-6)
        # Whatever the early dynamics, the final leader is HELCFL:
        # either no crossover (it led throughout) or the last crossover
        # hands the lead to it.
        if crossings:
            assert crossings[-1].leader_after == "a"
        assert helcfl[-1][1] > fedcs[-1][1]

    def test_fedcs_ceiling_below_helcfl(self, runs):
        assert (
            runs["fedcs"].best_accuracy < runs["helcfl"].best_accuracy
        )
