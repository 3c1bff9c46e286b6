"""Small statistics helpers over per-seed metric values.

Single-seed comparisons of FL schemes can land inside evaluation noise
(a 1 000-sample test set has ~1.5 pp accuracy noise); these helpers
summarize repeated runs so claims like "HELCFL >= Classic FL" can be
made with seeds-worth of evidence. A multi-seed study is one
:func:`~repro.experiments.fig2.run_fig2` per seed; read a metric off
each result's ``histories[name]`` and pass the per-seed lists here.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["mean_std", "paired_gap"]


def mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and sample standard deviation (ddof=1; 0.0 for < 2 values).

    Raises:
        ConfigurationError: for an empty sequence.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("cannot summarize zero values")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def paired_gap(
    a: Sequence[float], b: Sequence[float]
) -> Tuple[float, float, Optional[float]]:
    """Summary of paired per-seed differences ``a_i - b_i``.

    Args:
        a: metric values of scheme A, one per seed.
        b: metric values of scheme B, same seeds, same order.

    Returns:
        ``(mean gap, std of gap, fraction of seeds where a_i > b_i)``;
        the fraction is ``None`` for empty input.

    Raises:
        ConfigurationError: on length mismatch.
    """
    a_arr = np.asarray(list(a), dtype=np.float64)
    b_arr = np.asarray(list(b), dtype=np.float64)
    if a_arr.shape != b_arr.shape:
        raise ConfigurationError(
            f"paired series differ in length: {a_arr.size} vs {b_arr.size}"
        )
    if a_arr.size == 0:
        raise ConfigurationError("cannot compare zero paired values")
    gaps = a_arr - b_arr
    mean, std = mean_std(gaps)
    wins = float(np.mean(gaps > 0))
    return mean, std, wins
