"""A selection strategy that picks every user every round.

Trainer, fault and trace tests use it to see every device of a small
fleet in every round, with no ranking in the way; no scheme of the
paper selects like this.
"""

import numpy as np

from repro.devices.population import DevicePopulation
from repro.fl.strategy import SelectionStrategy


class FullParticipation(SelectionStrategy):
    """Select every user every round, in population order."""

    def select_population(
        self, round_index: int, population: DevicePopulation
    ) -> np.ndarray:
        del round_index
        return np.arange(len(population), dtype=np.int64)
