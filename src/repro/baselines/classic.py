"""Classic FL [9]: uniform-random user selection.

The standard FedAvg prototype "randomly selects ``100 x C`` users in
each iteration". FEDL [12] uses the same selection (the paper notes
their accuracy curves coincide for this reason) but pairs it with a
different frequency policy.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError
from repro.fl.strategy import SelectionStrategy, selection_count
from repro.rng import (
    SeedLike,
    ensure_generator,
    generator_state,
    restore_generator,
)

__all__ = ["RandomSelection"]


class RandomSelection(SelectionStrategy):
    """Uniformly random selection of ``max(Q*C, 1)`` users per round.

    Args:
        fraction: selection fraction ``C`` in ``(0, 1]`` (paper: 0.1).
        seed: selection seed; runs are reproducible given the seed.
    """

    def __init__(self, fraction: float, seed: SeedLike = None) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = float(fraction)
        self._seed = seed
        self._rng = ensure_generator(seed)

    def reset(self) -> None:
        """Re-seed the selection stream for a fresh run."""
        self._rng = ensure_generator(self._seed)

    def state_dict(self) -> Dict:
        """Checkpoint snapshot: the selection RNG mid-stream."""
        return {"rng": generator_state(self._rng)}

    def load_state_dict(self, state: Dict) -> None:
        """Resume the selection stream exactly where it froze."""
        self._rng = restore_generator(state.get("rng"))

    def select_population(
        self, round_index: int, population: DevicePopulation
    ) -> np.ndarray:
        """``N`` positions drawn without replacement, in ascending order."""
        del round_index
        count = selection_count(len(population), self.fraction)
        chosen = self._rng.choice(len(population), size=count, replace=False)
        return np.sort(chosen)

    def __repr__(self) -> str:
        return f"RandomSelection(C={self.fraction})"
