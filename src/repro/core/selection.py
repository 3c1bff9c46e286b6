"""Algorithm 2 — utility-driven greedy-decay user selection.

Each round, the strategy scores every user with Eq. (20) and greedily
takes the top ``N = max(Q*C, 1)`` utilities. Selected users' appearance
counters are incremented (Algorithm 2, line 18), decaying their utility
for future rounds. Ties are broken deterministically by device id so
runs are reproducible.

The ranking itself runs over a :class:`~repro.devices.DevicePopulation`
as one O(Q) ``np.argpartition`` at the N-th largest score instead of a
full sort (entries tied with that score cost two more scans), and
reproduces the full ``sorted(key=(-score, id))`` ranking — descending
utility, ties by ascending device id — bit for bit.
"""

from __future__ import annotations

import re
from typing import Dict

import numpy as np

from repro.core.utility import utility_scores
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError, SelectionError
from repro.fl.strategy import SelectionStrategy, check_link, selection_count
from repro.sequential import rank_by

__all__ = ["GreedyDecaySelection", "top_utility_positions"]

# A device id as state_dict writes it: str(int), no sign on 0.
_DEVICE_ID = re.compile(r"0|-?[1-9][0-9]{0,18}")
_INT64 = np.iinfo(np.int64)


def top_utility_positions(
    scores: np.ndarray, device_ids: np.ndarray, count: int
) -> np.ndarray:
    """Positions of the ``count`` best (score desc, id asc) entries.

    The returned positions are in ranked order — exactly the order a
    full ``sorted(key=(-score, id))[:count]`` produces.

    Args:
        scores: per-device utilities, aligned with ``device_ids``.
        device_ids: unique device ids (the deterministic tie-break).
        count: how many to take, an integer in ``[1, size]``.

    Raises:
        ConfigurationError: for a ``count`` that is not such an integer
            (a bool is not), or a NaN score — NaN has no rank, and
            ``np.argpartition`` would silently misplace it.
    """
    size = scores.shape[0]
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ConfigurationError(f"count must be an integer, got {count!r}")
    count = int(count)  # ``size - count`` overflows a uint8 ``count``
    if not 1 <= count <= size:
        raise ConfigurationError(f"cannot take top {count} of {size} devices")
    if np.isnan(scores).any():
        raise ConfigurationError(
            f"cannot rank a NaN utility (position {int(np.isnan(scores).argmax())})"
        )
    if count == size:
        return rank_by(-scores, device_ids)
    # The count-th largest value bounds the winners: everything
    # strictly above it is in. When no other entry equals it (a ±0.0
    # pair counts as equal), the partition's tail is exactly the
    # winners; otherwise the remaining slots go to the smallest ids
    # among the entries equal to it. ``chosen`` is then the winners in
    # no particular order: the ids are unique, so no two winners share
    # a (score, id) key and the final ranking does not depend on it.
    cut = size - count
    part = np.argpartition(scores, cut)
    kth = scores[part[cut]]
    if np.count_nonzero(scores == kth) == 1:
        chosen = part[cut:]
    else:
        above = np.flatnonzero(scores > kth)
        ties = np.flatnonzero(scores == kth)
        ties = ties[np.argsort(device_ids[ties])][: count - above.shape[0]]
        chosen = np.concatenate((above, ties))
    return chosen[rank_by(-scores[chosen], device_ids[chosen])]


class GreedyDecaySelection(SelectionStrategy):
    """HELCFL's utility-driven greedy-decay selection (Algorithm 2).

    Args:
        fraction: selection fraction ``C`` in ``(0, 1]`` (paper: 0.1).
        decay: decay coefficient ``eta`` in ``(0, 1)``.
        payload_bits: model payload ``C_model``, needed because the
            utility depends on upload delay.
        bandwidth_hz: uplink resource blocks ``Z``.

    The ``alpha_q`` counters live in one place: a pair of parallel
    int64 arrays ``(ids, counts)`` whose leading ``Q`` entries are
    aligned with the population last scored, so a round is
    ``alpha[positions] += 1`` and nothing per id. Counters of devices
    outside that population ride behind the aligned prefix and are
    picked up again when their ids come back.
    """

    def __init__(
        self,
        fraction: float,
        decay: float,
        payload_bits: float,
        bandwidth_hz: float,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        if not 0.0 < decay < 1.0:
            raise ConfigurationError(f"decay must be in (0, 1), got {decay}")
        check_link(payload_bits, bandwidth_hz)
        self.fraction = float(fraction)
        self.decay = float(decay)
        self.payload_bits = float(payload_bits)
        self.bandwidth_hz = float(bandwidth_hz)
        self._set_counters({})

    def _set_counters(self, counts: Dict[int, int]) -> None:
        self._alpha_ids = np.array(list(counts), dtype=np.int64)
        self._alpha = np.array(list(counts.values()), dtype=np.int64)

    @property
    def appearance_counts(self) -> Dict[int, int]:
        """The non-zero ``alpha_q`` counters as ``{device id: count}``: a
        read view built on each access; writing to it changes nothing."""
        seen = np.flatnonzero(self._alpha)
        return dict(
            zip(self._alpha_ids[seen].tolist(), self._alpha[seen].tolist())
        )

    def reset(self) -> None:
        """Zero every appearance counter (Algorithm 2, line 5)."""
        self._set_counters({})

    def state_dict(self) -> Dict:
        """Checkpoint snapshot: the ``alpha_q`` counters (JSON keys)."""
        return {
            "appearance_counts": {
                str(device_id): count
                for device_id, count in sorted(self.appearance_counts.items())
            }
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore the counters; the next round aligns them.

        Raises:
            SelectionError: ``state`` (read from a checkpoint file) is
                not what :meth:`state_dict` writes: int64 device ids in
                canonical decimal, non-negative int64 ``int`` counts.
        """
        counts = state.get("appearance_counts", {})
        if set(state) - {"appearance_counts"} or not isinstance(counts, dict):
            raise SelectionError(f"malformed greedy-decay state {state!r:.200}")
        restored: Dict[int, int] = {}
        for key, count in counts.items():
            if not (
                isinstance(key, str)
                and _DEVICE_ID.fullmatch(key)
                and _INT64.min <= int(key) <= _INT64.max
                and type(count) is int
                and 0 <= count <= _INT64.max
            ):
                raise SelectionError(
                    f"malformed appearance count {key!r}: {count!r:.100}"
                )
            restored[int(key)] = count
        self._set_counters(restored)

    def _alpha_for(self, population: DevicePopulation) -> np.ndarray:
        """``alpha_q`` aligned with ``population``, as a writable view."""
        ids = population.device_ids
        size = ids.shape[0]
        if not np.array_equal(self._alpha_ids[:size], ids):
            counts = self.appearance_counts
            if counts:
                # A restored checkpoint or a changed fleet: this
                # population's devices take the leading rows with their
                # counts, every other counter moves behind them.
                aligned = dict.fromkeys(ids.tolist(), 0)
                aligned.update(counts)
                self._set_counters(aligned)
            else:
                self._alpha_ids = ids.copy()
                self._alpha = np.zeros(size, dtype=np.int64)
        return self._alpha[:size]

    def scores(self, population: DevicePopulation) -> np.ndarray:
        """Current Eq. (20) utilities, aligned with population order.

        No side effects beyond aligning the counters to ``population``.
        """
        return utility_scores(
            population,
            self._alpha_for(population),
            self.payload_bits,
            self.bandwidth_hz,
            self.decay,
        )

    def select_population(
        self, round_index: int, population: DevicePopulation
    ) -> np.ndarray:
        """Select the top-``N`` users by utility and decay them.

        Returns ranked population positions. Because a user's utility
        does not change *within* a round's selection loop (its counter
        is bumped only once it is selected, and each user can be
        selected at most once), taking the top-``N`` scores in one pass
        is exactly equivalent to Algorithm 2's iterative
        argmax-and-remove loop (lines 14-19).
        """
        del round_index
        alpha = self._alpha_for(population)
        scores = utility_scores(
            population, alpha, self.payload_bits, self.bandwidth_hz, self.decay
        )
        count = selection_count(len(population), self.fraction)
        positions = top_utility_positions(
            scores, population.device_ids, count
        )
        # Algorithm 2 line 18: bump the winners' counters (``alpha`` is
        # a view of them).
        alpha[positions] += 1
        return positions

    def __repr__(self) -> str:
        return f"GreedyDecaySelection(C={self.fraction}, eta={self.decay})"
