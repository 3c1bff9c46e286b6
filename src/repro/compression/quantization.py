"""Uniform k-bit quantization of model updates.

Implements the classic uniform (linear) quantizer used by
communication-efficient FL schemes [6]: the update vector is mapped
onto ``2^bits`` evenly spaced levels between its minimum and maximum,
transmitted as integer codes plus the two float range endpoints.

The payload accounting charges ``bits`` per parameter plus a constant
header, so a 32-bit float update quantized to 8 bits shrinks the
communication payload (and hence Eq. 7's upload delay) by ~4x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import ensure_generator

__all__ = ["QuantizedVector", "UniformQuantizer"]

_HEADER_BITS = 2 * 64  # two float64 range endpoints


@dataclass(frozen=True)
class QuantizedVector:
    """A quantized update: integer codes plus the dequantization range.

    Attributes:
        codes: integer level indices, dtype sized to the bit width.
        low: minimum of the original vector.
        high: maximum of the original vector.
        bits: bits per entry.
    """

    codes: np.ndarray
    low: float
    high: float
    bits: int

    @property
    def payload_bits(self) -> float:
        """Transmitted size: ``bits`` per entry plus the range header."""
        return float(self.codes.size * self.bits + _HEADER_BITS)


class UniformQuantizer:
    """Uniform quantizer with ``bits`` levels per parameter.

    Args:
        bits: bit width per parameter, in ``[1, 16]``.
        stochastic: use stochastic (unbiased) rounding instead of
            nearest-level rounding.
        seed: rounding seed (stochastic mode only).
    """

    def __init__(self, bits: int = 8, stochastic: bool = False, seed=None):
        if not 1 <= bits <= 16:
            raise ConfigurationError(f"bits must be in [1, 16], got {bits}")
        self.bits = int(bits)
        self.stochastic = bool(stochastic)
        self._rng = ensure_generator(seed)

    def payload_bits(self, dimension: int) -> float:
        """Bits of the payload :meth:`compress` returns for a
        ``dimension``-long vector, whatever its values."""
        return float(dimension * self.bits + _HEADER_BITS)

    @property
    def levels(self) -> int:
        """Number of representable levels, ``2^bits``."""
        return 2**self.bits

    def compress(self, vector: np.ndarray) -> QuantizedVector:
        """Quantize ``vector`` onto the uniform grid.

        Args:
            vector: float update vector (flattened internally).

        Returns:
            The :class:`QuantizedVector` payload.
        """
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.size == 0:
            return QuantizedVector(
                codes=np.zeros(0, dtype=np.uint16),
                low=0.0,
                high=0.0,
                bits=self.bits,
            )
        low = float(vector.min())
        high = float(vector.max())
        scale = (self.levels - 1) / (high - low) if high > low else np.inf
        if high == low or not np.isfinite(scale):
            # Constant vector, or a span so small the scale overflows:
            # transmit a single level (the reconstruction error is at
            # most the span itself, which is ~0 here).
            codes = np.zeros(vector.size, dtype=np.uint16)
            return QuantizedVector(codes=codes, low=low, high=low, bits=self.bits)
        positions = (vector - low) * scale
        if self.stochastic:
            floor = np.floor(positions)
            fraction = positions - floor
            jitter = self._rng.random(vector.size) < fraction
            codes = (floor + jitter).astype(np.uint16)
        else:
            codes = np.rint(positions).astype(np.uint16)
        codes = np.clip(codes, 0, self.levels - 1)
        return QuantizedVector(codes=codes, low=low, high=high, bits=self.bits)

    def decompress(self, payload: QuantizedVector) -> np.ndarray:
        """Reconstruct the float vector from a quantized payload."""
        if payload.codes.size == 0:
            return np.zeros(0, dtype=np.float64)
        if payload.high == payload.low:
            return np.full(payload.codes.size, payload.low, dtype=np.float64)
        step = (payload.high - payload.low) / (self.levels - 1)
        return payload.low + payload.codes.astype(np.float64) * step

    def max_error(self, payload: QuantizedVector) -> float:
        """Worst-case absolute reconstruction error for this payload.

        Nearest rounding errs by at most half a step; stochastic
        rounding by at most a full step.
        """
        if payload.high == payload.low:
            return 0.0
        step = (payload.high - payload.low) / (self.levels - 1)
        return step if self.stochastic else step / 2.0

    def __repr__(self) -> str:
        mode = "stochastic" if self.stochastic else "nearest"
        return f"UniformQuantizer(bits={self.bits}, {mode})"
