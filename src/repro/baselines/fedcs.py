"""FedCS [10]: greedy deadline-constrained client selection.

Nishio & Yonetani's FedCS fixes a per-round deadline and greedily packs
in as many users as possible, always preferring users with short
training delays. Under the TDMA uplink this is a sequential packing
problem: each added user contributes its upload time to the shared
channel, so FedCS adds users in ascending total-delay order while the
simulated round still finishes within the deadline.

The paper's observation (Section V-A) is that this strategy never
selects users whose delay alone exceeds what the deadline can fit —
their data is permanently excluded, capping achievable accuracy. The
reproduction preserves exactly this behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError, SelectionError
from repro.fl.strategy import SelectionStrategy, check_link
from repro.network.tdma import simulate_tdma_round
from repro.sequential import rank_by
from repro.rng import (
    SeedLike,
    ensure_generator,
    generator_state,
    restore_generator,
)

__all__ = ["FedCsSelection", "fedcs_deadline_for_count"]


def fedcs_deadline_for_count(
    devices: Sequence[UserDevice],
    payload_bits: float,
    bandwidth_hz: float,
    count: int,
) -> float:
    """A per-round deadline that fits the ``count`` fastest users.

    Used to configure FedCS comparably to fraction-based baselines: the
    returned deadline is the simulated TDMA round delay of the
    ``count`` lowest-total-delay users at max frequency, so FedCS
    selects roughly ``count`` users per round.

    Args:
        devices: the full population.
        payload_bits: model payload ``C_model``.
        bandwidth_hz: uplink resource blocks ``Z``.
        count: number of fast users the deadline should accommodate.
    """
    if count <= 0:
        raise SelectionError(f"count must be positive, got {count}")
    if not devices:
        raise SelectionError("cannot derive a deadline from no devices")
    count = min(count, len(devices))
    fastest = sorted(
        devices,
        key=lambda d: d.total_delay(payload_bits, bandwidth_hz),
    )[:count]
    return simulate_tdma_round(fastest, payload_bits, bandwidth_hz).round_delay


class FedCsSelection(SelectionStrategy):
    """Greedy deadline-constrained selection (FedCS).

    Following Nishio & Yonetani's protocol, each round the server first
    polls a *random candidate subset* of the population for resource
    information (the "resource request" step) and then greedily packs
    short-delay candidates under the deadline. Candidate sampling is
    what lets FedCS's coverage extend beyond a fixed fastest set while
    still never admitting users too slow for the deadline.

    Args:
        round_deadline_s: the per-round completion deadline.
        payload_bits: model payload ``C_model`` (needed to simulate
            candidate rounds).
        bandwidth_hz: uplink resource blocks ``Z``.
        max_users: optional hard cap on selected users per round.
        candidate_fraction: fraction of the population polled as
            candidates each round (FedCS's resource-request step);
            ``None`` considers everyone every round (a deterministic
            degenerate variant).
        seed: candidate-sampling seed.
    """

    def __init__(
        self,
        round_deadline_s: float,
        payload_bits: float,
        bandwidth_hz: float,
        max_users: Optional[int] = None,
        candidate_fraction: Optional[float] = None,
        seed: SeedLike = None,
    ) -> None:
        # Written so that NaN fails it (``nan <= 0`` is False).
        if not round_deadline_s > 0:
            raise ConfigurationError(
                f"round_deadline_s must be positive, got {round_deadline_s}"
            )
        check_link(payload_bits, bandwidth_hz)
        if max_users is not None and max_users <= 0:
            raise ConfigurationError(
                f"max_users must be positive when set, got {max_users}"
            )
        if candidate_fraction is not None and not 0.0 < candidate_fraction <= 1.0:
            raise ConfigurationError(
                f"candidate_fraction must be in (0, 1] when set, got "
                f"{candidate_fraction}"
            )
        self.round_deadline_s = float(round_deadline_s)
        self.payload_bits = float(payload_bits)
        self.bandwidth_hz = float(bandwidth_hz)
        self.max_users = max_users
        self.candidate_fraction = candidate_fraction
        self._seed = seed
        self._rng = ensure_generator(seed)

    def reset(self) -> None:
        """Re-seed the candidate-sampling stream for a fresh run."""
        self._rng = ensure_generator(self._seed)

    def state_dict(self) -> Dict:
        """Checkpoint snapshot: the candidate-sampling RNG mid-stream."""
        return {"rng": generator_state(self._rng)}

    def load_state_dict(self, state: Dict) -> None:
        """Resume the candidate-sampling stream where it froze."""
        self._rng = restore_generator(state["rng"])

    def _candidates(self, population: DevicePopulation) -> np.ndarray:
        """The round's polled candidate positions (resource-request step)."""
        size = len(population)
        if self.candidate_fraction is None:
            return np.arange(size, dtype=np.int64)
        count = max(1, int(round(self.candidate_fraction * size)))
        return np.sort(self._rng.choice(size, size=count, replace=False))

    def select_population(
        self, round_index: int, population: DevicePopulation
    ) -> np.ndarray:
        """Greedily pack short-delay users under the round deadline.

        Candidates are considered in ascending (total delay, id) order;
        a candidate is kept if the TDMA round over the tentative set
        still meets the deadline. At least one user (the single fastest
        whose own round fits, or failing that the fastest candidate) is
        always selected so training can proceed.
        """
        del round_index
        candidates = self._candidates(population)
        delays = population.max_frequency_delay(
            self.payload_bits, self.bandwidth_hz
        )
        ranked = candidates[
            rank_by(delays[candidates], population.device_ids[candidates])
        ]
        limit = ranked.shape[0]
        if self.max_users is not None:
            limit = min(limit, self.max_users)
        count = 0
        while count < limit:
            timeline = simulate_tdma_round(
                (),
                self.payload_bits,
                self.bandwidth_hz,
                population=population.take(ranked[: count + 1]),
            )
            if timeline.round_delay > self.round_deadline_s:
                # Candidates are sorted by individual delay, but a
                # later candidate with shorter T_com could still fit;
                # FedCS's greedy heuristic stops at the first miss.
                break
            count += 1
        return ranked[: max(count, 1)]

    def __repr__(self) -> str:
        return f"FedCsSelection(deadline={self.round_deadline_s:.3g}s)"
