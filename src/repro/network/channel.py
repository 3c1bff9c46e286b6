"""Channel-gain models.

The paper treats each user's channel gain ``h_q`` as a constant inside
Eq. (6) (a device's fixed ``channel_gain``). Rayleigh fading adds
per-round variation around such a gain (extension experiments).
"""

from __future__ import annotations

import math

from repro.errors import NetworkError
from repro.rng import SeedLike, ensure_generator

__all__ = ["RayleighFadingChannel"]


class RayleighFadingChannel:
    """Rayleigh-faded gain around a mean amplitude (extension).

    Each :meth:`sample_gain` call draws a fresh fade, modelling
    per-round small-scale fading on top of a mean gain.

    Args:
        mean_gain: average amplitude gain.
        seed: fade-draw seed.
    """

    def __init__(self, mean_gain: float = 1.0, seed: SeedLike = None) -> None:
        if mean_gain <= 0:
            raise NetworkError(f"mean_gain must be positive, got {mean_gain}")
        self.mean_gain = float(mean_gain)
        self._rng = ensure_generator(seed)
        # Rayleigh(scale) has mean scale * sqrt(pi / 2).
        self._scale = self.mean_gain / math.sqrt(math.pi / 2.0)

    def sample_gain(self) -> float:
        """Draw one Rayleigh-faded amplitude gain (never exactly 0)."""
        return max(float(self._rng.rayleigh(self._scale)), 1e-12)
