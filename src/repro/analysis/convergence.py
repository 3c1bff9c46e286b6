"""Convergence detection for the FL loop.

Algorithm 1's exit condition checks "whether this newly created global
ML model converges in this iteration" (Section IV). The paper does not
specify the test; this module provides the standard plateau detector —
training has converged when the best loss seen stops improving by at
least ``min_delta`` for ``patience`` consecutive evaluations — exposed
both as a reusable class and through
:class:`repro.fl.trainer.TrainerConfig` (``convergence_patience`` /
``convergence_min_delta``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigurationError

__all__ = ["PlateauDetector"]


class PlateauDetector:
    """Detect a loss plateau: no ``min_delta`` improvement for
    ``patience`` consecutive observations.

    Feed it one loss value per evaluation; :meth:`update` returns True
    once converged (and keeps returning True thereafter).

    Args:
        patience: consecutive non-improving observations required.
        min_delta: improvement below this counts as "no improvement".
        mode: ``"min"`` for losses (smaller is better), ``"max"`` for
            accuracies.
    """

    def __init__(
        self, patience: int = 10, min_delta: float = 1e-4, mode: str = "min"
    ) -> None:
        if patience <= 0:
            raise ConfigurationError(f"patience must be positive, got {patience}")
        if min_delta < 0:
            raise ConfigurationError(
                f"min_delta must be non-negative, got {min_delta}"
            )
        if mode not in ("min", "max"):
            raise ConfigurationError(f"mode must be 'min' or 'max', got {mode!r}")
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.mode = mode
        self.best: Optional[float] = None
        self.stale_count = 0
        self.converged = False

    def reset(self) -> None:
        """Forget all observations."""
        self.best = None
        self.stale_count = 0
        self.converged = False

    def state_dict(self) -> Dict:
        """JSON-serializable snapshot of the observations so far
        (checkpoint/resume; the layout is part of the checkpoint format)."""
        return {
            "best": self.best,
            "stale_count": self.stale_count,
            "converged": self.converged,
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.best = state.get("best")
        self.stale_count = int(state.get("stale_count", 0))
        self.converged = bool(state.get("converged"))

    def _improved(self, value: float) -> bool:
        if self.best is None:
            return True
        if self.mode == "min":
            return value < self.best - self.min_delta
        return value > self.best + self.min_delta

    def update(self, value: float) -> bool:
        """Record one observation; returns True when converged."""
        if self.converged:
            return True
        if self._improved(value):
            self.best = value
            self.stale_count = 0
        else:
            self.stale_count += 1
            if self.stale_count >= self.patience:
                self.converged = True
        return self.converged

    def __repr__(self) -> str:
        return (
            f"PlateauDetector(patience={self.patience}, "
            f"min_delta={self.min_delta}, mode={self.mode!r}, "
            f"converged={self.converged})"
        )
