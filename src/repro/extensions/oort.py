"""Oort-style joint statistical + system utility selection (extension).

HELCFL's utility (Eq. 20) is purely *system*-side: it scores users by
training delay, decayed by participation. The closest published
relative, Oort (Lai et al., OSDI 2021), additionally folds in
*statistical* utility — how informative a user's data currently is,
estimated from its recent training loss — and explores unseen users.

This extension implements the Oort scoring shape on this repository's
substrates::

    U_q = StatUtil_q * (T_pref / T_q)^alpha_penalty   if T_q > T_pref
    U_q = StatUtil_q                                   otherwise

where ``StatUtil_q`` is ``|D_q| * last_loss_q`` (loss-weighted data
volume), ``T_q`` the user's round delay, and ``T_pref`` a preferred
round duration (the system-speed developer knob). Users never selected
get an exploration bonus so the scheme keeps discovering data.

It is a drop-in :class:`~repro.fl.strategy.SelectionStrategy`: it
overrides the base class's :meth:`SelectionStrategy.observe_losses`
no-op hook, which :class:`~repro.fl.trainer.FederatedTrainer` calls
with every round's observed client losses (see
``benchmarks/bench_ext_oort.py``).
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError
from repro.fl.strategy import SelectionStrategy, check_link, selection_count
from repro.sequential import rank_by
from repro.rng import (
    SeedLike,
    ensure_generator,
    generator_state,
    restore_generator,
)

__all__ = ["OortSelection"]


class OortSelection(SelectionStrategy):
    """Joint statistical/system utility selection with exploration.

    Args:
        fraction: selection fraction ``C``.
        payload_bits: model payload (for the delay estimate).
        bandwidth_hz: uplink resource blocks.
        preferred_round_s: the "preferred" round duration ``T_pref``;
            users slower than this are penalized. ``None`` uses the
            population's median total delay, computed lazily.
        penalty_exponent: the system-penalty exponent ``alpha``.
        exploration_fraction: fraction of each round's slots given to
            never-selected users (sampled uniformly), while any remain.
        seed: exploration-sampling seed.
    """

    def __init__(
        self,
        fraction: float,
        payload_bits: float,
        bandwidth_hz: float,
        preferred_round_s: float | None = None,
        penalty_exponent: float = 1.0,
        exploration_fraction: float = 0.2,
        seed: SeedLike = None,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        check_link(payload_bits, bandwidth_hz)
        # Guards are written so that NaN fails them (``nan <= 0`` is False).
        if preferred_round_s is not None and not preferred_round_s > 0:
            raise ConfigurationError(
                f"preferred_round_s must be positive, got {preferred_round_s}"
            )
        if not (math.isfinite(penalty_exponent) and penalty_exponent >= 0):
            raise ConfigurationError(
                f"penalty_exponent must be >= 0, got {penalty_exponent}"
            )
        if not 0.0 <= exploration_fraction <= 1.0:
            raise ConfigurationError(
                f"exploration_fraction must be in [0, 1], got "
                f"{exploration_fraction}"
            )
        self.fraction = float(fraction)
        self.payload_bits = float(payload_bits)
        self.bandwidth_hz = float(bandwidth_hz)
        self.preferred_round_s = preferred_round_s
        self.penalty_exponent = float(penalty_exponent)
        self.exploration_fraction = float(exploration_fraction)
        self._seed = seed
        self._rng = ensure_generator(seed)
        self.last_losses: Dict[int, float] = {}
        self.ever_selected: set = set()

    def reset(self) -> None:
        """Forget loss observations and exploration state."""
        self.last_losses.clear()
        self.ever_selected.clear()
        self._rng = ensure_generator(self._seed)

    def state_dict(self) -> Dict:
        """Checkpoint snapshot: losses, exploration set, RNG stream."""
        return {
            "last_losses": {
                str(device_id): loss
                for device_id, loss in sorted(self.last_losses.items())
            },
            "ever_selected": sorted(self.ever_selected),
            "rng": generator_state(self._rng),
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.last_losses = {
            int(device_id): float(loss)
            for device_id, loss in state.get("last_losses", {}).items()
        }
        self.ever_selected = set(state.get("ever_selected", ()))
        self._rng = restore_generator(state["rng"])

    # ------------------------------------------------------------------
    def observe_losses(self, losses: Dict[int, float]) -> None:
        """Feed back observed client training losses (base-hook override).

        Args:
            losses: mapping from device id to the loss measured in its
                most recent participation.
        """
        for device_id, loss in losses.items():
            if loss < 0:
                raise ConfigurationError(
                    f"loss must be non-negative, got {loss} for {device_id}"
                )
            self.last_losses[int(device_id)] = float(loss)

    def utilities(self, population: DevicePopulation) -> np.ndarray:
        """The Oort score of every device, aligned with population order."""
        delays = population.max_frequency_delay(
            self.payload_bits, self.bandwidth_hz
        )
        preferred = self.preferred_round_s
        if preferred is None:
            preferred = float(np.sort(delays)[delays.shape[0] // 2])
        # Devices without an observed loss get a neutral prior: unseen
        # devices are exploration's job, so the score stays total.
        losses = np.fromiter(
            (
                self.last_losses.get(device_id, 1.0)
                for device_id in population.device_ids.tolist()
            ),
            dtype=np.float64,
            count=len(population),
        )
        stat = population.num_samples * losses
        if self.penalty_exponent > 0:
            # math.pow per penalized device: a numpy pow kernel may
            # round differently from the scalar one.
            for position in np.flatnonzero(delays > preferred).tolist():
                stat[position] *= math.pow(
                    preferred / delays[position], self.penalty_exponent
                )
        return stat

    def select_population(
        self, round_index: int, population: DevicePopulation
    ) -> np.ndarray:
        """Explore unseen users, then rank the rest by :meth:`utilities`."""
        del round_index
        ids = population.device_ids
        count = selection_count(len(population), self.fraction)
        seen = np.fromiter(
            (device_id in self.ever_selected for device_id in ids.tolist()),
            dtype=bool,
            count=len(population),
        )
        unexplored = np.flatnonzero(~seen)
        explore_slots = min(
            unexplored.shape[0],
            max(0, int(round(self.exploration_fraction * count))),
        )
        # While nothing has been observed yet, explore with every slot.
        if not self.last_losses:
            explore_slots = min(unexplored.shape[0], count)

        chosen = unexplored[:0]
        if explore_slots:
            picks = self._rng.choice(
                unexplored.shape[0], size=explore_slots, replace=False
            )
            chosen = unexplored[np.sort(picks)]

        remaining = count - chosen.shape[0]
        if remaining > 0:
            scores = self.utilities(population)
            pool = np.ones(len(population), dtype=bool)
            pool[chosen] = False
            candidates = np.flatnonzero(pool)
            order = rank_by(-scores[candidates], ids[candidates])
            chosen = np.concatenate((chosen, candidates[order[:remaining]]))

        self.ever_selected.update(ids[chosen].tolist())
        return chosen

    def __repr__(self) -> str:
        return (
            f"OortSelection(C={self.fraction}, "
            f"explore={self.exploration_fraction})"
        )
