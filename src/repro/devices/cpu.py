"""DVFS CPU model — the paper's local calculation model.

Implements:

* **Eq. (4)** calculation delay  ``T_cal = pi * |D| / f``
* **Eq. (5)** calculation energy ``E_cal = (alpha/2) * pi * |D| * f^2``

where ``pi`` is CPU cycles per data sample, ``|D|`` the local dataset
size, ``f`` the operating frequency, and ``alpha/2`` the effective
switched capacitance of the chip.

Frequencies may be continuous within ``[f_min, f_max]`` or restricted
to a discrete ladder (realistic DVFS governors expose a handful of
P-states); the ladder variant rounds requested frequencies *up* to the
next available step so deadlines derived from the continuous solution
remain met.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import DeviceError, FrequencyRangeError

__all__ = ["DvfsCpu"]


class DvfsCpu:
    """A DVFS-capable CPU with the paper's delay and energy model.

    Args:
        f_min: lowest operating frequency in Hz (paper: 0.3 GHz).
        f_max: highest operating frequency in Hz (paper: uniform in
            (0.3, 2.0) GHz per user).
        cycles_per_sample: the paper's ``pi`` (default 1e7).
        switched_capacitance: the paper's ``alpha`` in Eq. (5)
            (default 2e-28; the printed ``2e28`` is a sign typo, see
            DESIGN.md).
        frequency_levels: optional ascending discrete ladder; when
            given, :meth:`quantize` snaps requests onto it. The ladder
            must lie within ``[f_min, f_max]`` and include ``f_max``.
    """

    def __init__(
        self,
        f_min: float,
        f_max: float,
        cycles_per_sample: float = 1e7,
        switched_capacitance: float = 2e-28,
        frequency_levels: Optional[Sequence[float]] = None,
    ) -> None:
        for name, value in (
            ("f_min", f_min),
            ("f_max", f_max),
            ("cycles_per_sample", cycles_per_sample),
            ("switched_capacitance", switched_capacitance),
        ):
            # Tested as "inside" so NaN is rejected along with +inf.
            if not 0.0 < value < math.inf:
                raise DeviceError(f"{name} must be finite and positive, got {value}")
        if f_min > f_max:
            raise DeviceError(f"f_min={f_min} exceeds f_max={f_max}")
        self.f_min = float(f_min)
        self.f_max = float(f_max)
        self.cycles_per_sample = float(cycles_per_sample)
        self.switched_capacitance = float(switched_capacitance)
        if frequency_levels is not None:
            levels = np.sort(np.asarray(frequency_levels, dtype=np.float64))
            if levels.size == 0:
                raise DeviceError("frequency_levels must be non-empty when given")
            if levels[0] < self.f_min - 1e-9 or levels[-1] > self.f_max + 1e-9:
                raise DeviceError(
                    "frequency_levels must lie within [f_min, f_max], got "
                    f"[{levels[0]}, {levels[-1]}] for "
                    f"[{self.f_min}, {self.f_max}]"
                )
            if not np.isclose(levels[-1], self.f_max):
                raise DeviceError("frequency_levels must include f_max")
            self.frequency_levels: Optional[np.ndarray] = levels
        else:
            self.frequency_levels = None

    # ------------------------------------------------------------------
    # Frequency handling
    # ------------------------------------------------------------------
    def validate_frequency(self, frequency: float) -> float:
        """Return ``frequency`` if it is within range, else raise.

        Raises:
            FrequencyRangeError: when outside ``[f_min, f_max]`` (with a
                small numeric tolerance) or not finite.
        """
        tolerance = 1e-9 * self.f_max
        # Written as "not inside" so NaN, which fails every comparison,
        # is rejected along with +-inf.
        if not self.f_min - tolerance <= frequency <= self.f_max + tolerance:
            raise FrequencyRangeError(
                f"frequency {frequency:.4g} Hz outside "
                f"[{self.f_min:.4g}, {self.f_max:.4g}] Hz"
            )
        return float(min(max(frequency, self.f_min), self.f_max))

    def clamp(self, frequency: float) -> float:
        """Clamp ``frequency`` into ``[f_min, f_max]``."""
        return float(min(max(frequency, self.f_min), self.f_max))

    def quantize(self, frequency: float) -> float:
        """Snap ``frequency`` onto the discrete ladder, rounding up.

        With a continuous CPU this is the identity (after clamping).
        Rounding *up* guarantees a deadline computed for the requested
        frequency is still met at the quantized one.
        """
        frequency = self.clamp(frequency)
        if self.frequency_levels is None:
            return frequency
        idx = int(np.searchsorted(self.frequency_levels, frequency - 1e-12))
        idx = min(idx, self.frequency_levels.size - 1)
        return float(self.frequency_levels[idx])

    # ------------------------------------------------------------------
    # Paper equations
    # ------------------------------------------------------------------
    def cycles_for(self, num_samples: int) -> float:
        """Total CPU cycles to process ``num_samples`` (``pi * |D|``)."""
        if num_samples < 0:
            raise DeviceError(f"num_samples must be non-negative, got {num_samples}")
        return self.cycles_per_sample * num_samples

    def compute_delay(self, num_samples: int, frequency: Optional[float] = None) -> float:
        """Eq. (4): seconds to run a local update on ``num_samples``.

        Args:
            num_samples: local dataset size ``|D_q|``.
            frequency: operating frequency; defaults to ``f_max``.
        """
        frequency = self.f_max if frequency is None else self.validate_frequency(frequency)
        return self.cycles_for(num_samples) / frequency

    def compute_energy(self, num_samples: int, frequency: Optional[float] = None) -> float:
        """Eq. (5): joules to run a local update on ``num_samples``.

        Args:
            num_samples: local dataset size ``|D_q|``.
            frequency: operating frequency; defaults to ``f_max``.
        """
        frequency = self.f_max if frequency is None else self.validate_frequency(frequency)
        return 0.5 * self.switched_capacitance * self.cycles_for(num_samples) * frequency**2

    def frequency_for_delay(self, num_samples: int, target_delay: float) -> float:
        """Invert Eq. (4): frequency so the update takes ``target_delay``.

        This is line 9 of Algorithm 3 — ``f = pi * |D| / T``. The result
        is *not* clamped; callers decide how to treat out-of-range
        answers (Algorithm 3 clamps, tests check raw values).

        Raises:
            DeviceError: for a non-positive target delay.
        """
        if target_delay <= 0:
            raise DeviceError(f"target_delay must be positive, got {target_delay}")
        return self.cycles_for(num_samples) / target_delay

    def min_max_delay(self, num_samples: int) -> Tuple[float, float]:
        """Return ``(delay at f_max, delay at f_min)`` for ``num_samples``."""
        return (
            self.compute_delay(num_samples, self.f_max),
            self.compute_delay(num_samples, self.f_min),
        )

    def __repr__(self) -> str:
        ladder = (
            f", levels={len(self.frequency_levels)}"
            if self.frequency_levels is not None
            else ""
        )
        return (
            f"DvfsCpu(f_min={self.f_min / 1e9:.2f}GHz, "
            f"f_max={self.f_max / 1e9:.2f}GHz{ladder})"
        )
