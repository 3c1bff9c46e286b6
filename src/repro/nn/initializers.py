"""Weight initializers for :mod:`repro.nn` layers.

Each initializer is a plain function ``(shape, rng) -> ndarray``:
``Dense`` and ``Conv2D`` start their weights He normal and their
biases at zero. The fan-in follows the usual convention: for a dense
weight of shape ``(in, out)`` it is ``in``; for a convolution kernel of
shape ``(out_channels, in_channels, kh, kw)`` it is
``in_channels * kh * kw``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["compute_fans", "he_normal", "zeros_init"]


def compute_fans(shape: Sequence[int]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight tensor of ``shape``.

    Supports dense weights ``(in, out)``, conv kernels
    ``(out_c, in_c, kh, kw)``, and degenerate 1-D shapes (biases).
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def he_normal(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming normal initialization."""
    fan_in, _ = compute_fans(shape)
    std = float(np.sqrt(2.0 / fan_in))
    return rng.normal(0.0, std, size=shape).astype(np.float64)


def zeros_init(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """All-zeros initialization (every bias)."""
    del rng
    return np.zeros(shape, dtype=np.float64)
