"""Order statistics and the per-call timer the benchmark reports with."""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["quantile", "summary", "time_calls"]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of ``values`` at ``0 <= q <= 1``."""
    if not values:
        raise ValueError("quantile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count — the form every timing is reported in."""
    return {
        "value": quantile(values, 0.5),
        "p25": quantile(values, 0.25),
        "p75": quantile(values, 0.75),
        "n": len(values),
    }


def time_calls(
    call: Callable[[], object],
    budget_s: float,
    min_calls: int = 3,
    max_calls: int = 2000,
    before: Optional[Callable[[], object]] = None,
    warm: bool = True,
) -> List[float]:
    """Seconds taken by each of several calls of ``call``.

    One untimed call warms caches and lazy buffers (unless ``warm`` is
    off); calls then repeat until ``budget_s`` is spent (at least
    ``min_calls``, at most ``max_calls``). ``before`` runs untimed ahead
    of every call, for kernels that consume their input.
    """
    if warm:
        if before is not None:
            before()
        call()
    samples: List[float] = []
    spent = 0.0
    while len(samples) < max_calls and (
        len(samples) < min_calls or spent < budget_s
    ):
        if before is not None:
            before()
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        spent += elapsed
    return samples
