"""Strategy registry: build any evaluated scheme by name.

Names (case-insensitive):

* ``"helcfl"`` — greedy-decay selection + Algorithm 3 DVFS.
* ``"helcfl-nodvfs"`` — greedy-decay selection at max frequency
  (the ablation pair of Fig. 3).
* ``"classic"`` — random selection at max frequency (Classic FL [9]).
* ``"fedcs"`` — deadline-greedy selection at max frequency [10].
* ``"fedl"`` — random selection + closed-form frequency [12].

``"sl"`` (separated learning) is not a selection strategy — it has no
server round — and is handled by
:class:`repro.baselines.sl.SeparatedLearningRunner` /
:func:`repro.experiments.runner.run_strategy`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.baselines.classic import RandomSelection
from repro.baselines.fedcs import FedCsSelection, fedcs_deadline_for_count
from repro.baselines.fedl import FedlClosedFormPolicy
from repro.core.frequency import HelcflDvfsPolicy
from repro.core.selection import GreedyDecaySelection
from repro.devices.device import UserDevice
from repro.errors import ConfigurationError
from repro.fl.strategy import (
    FrequencyPolicy,
    MaxFrequencyPolicy,
    SelectionStrategy,
    selection_count,
)
from repro.rng import SeedLike

__all__ = ["build_strategy"]

_STRATEGIES = ("helcfl", "helcfl-nodvfs", "classic", "fedcs", "fedl")


def build_strategy(
    name: str,
    devices: Sequence[UserDevice],
    fraction: float,
    payload_bits: float,
    bandwidth_hz: float,
    decay: float = 0.7,
    seed: SeedLike = None,
    fedcs_target_count: Optional[int] = None,
    fedcs_candidate_fraction: Optional[float] = None,
    fedl_kappa: float = 0.2,
) -> Tuple[SelectionStrategy, Optional[FrequencyPolicy]]:
    """Build the selection strategy and frequency policy for ``name``.

    Args:
        name: one of ``helcfl``, ``helcfl-nodvfs``, ``classic``,
            ``fedcs``, ``fedl``.
        devices: the population (FedCS derives its deadline from it).
        fraction: selection fraction ``C``.
        payload_bits: model payload ``C_model``.
        bandwidth_hz: uplink resource blocks ``Z``.
        decay: HELCFL's ``eta``.
        seed: randomness for random selection.
        fedcs_target_count: users the FedCS deadline should fit;
            defaults to ``max(Q * C, 1)`` for a fair comparison.
        fedcs_candidate_fraction: fraction of users FedCS polls each
            round before packing; ``None`` polls everyone.
        fedl_kappa: FEDL's delay price.

    Returns:
        ``(selection, frequency_policy)``; a ``None`` policy means max
        frequency.

    Raises:
        ConfigurationError: for an unknown name.
    """
    key = name.strip().lower()
    if key == "helcfl":
        return (
            GreedyDecaySelection(fraction, decay, payload_bits, bandwidth_hz),
            HelcflDvfsPolicy(),
        )
    if key == "helcfl-nodvfs":
        return (
            GreedyDecaySelection(fraction, decay, payload_bits, bandwidth_hz),
            MaxFrequencyPolicy(),
        )
    if key == "classic":
        return RandomSelection(fraction, seed=seed), MaxFrequencyPolicy()
    if key == "fedcs":
        count = fedcs_target_count
        if count is None:
            count = selection_count(len(devices), fraction)
        deadline = fedcs_deadline_for_count(
            devices, payload_bits, bandwidth_hz, count
        )
        return (
            FedCsSelection(
                deadline,
                payload_bits,
                bandwidth_hz,
                candidate_fraction=fedcs_candidate_fraction,
                seed=seed,
            ),
            MaxFrequencyPolicy(),
        )
    if key == "fedl":
        return (
            RandomSelection(fraction, seed=seed),
            FedlClosedFormPolicy(kappa=fedl_kappa),
        )
    raise ConfigurationError(
        f"unknown strategy {name!r}; expected one of {_STRATEGIES} (or 'sl' "
        "via repro.experiments.runner)"
    )


def strategy_labels() -> Dict[str, str]:
    """Human-readable labels used in reports."""
    return {
        "helcfl": "HELCFL",
        "helcfl-nodvfs": "HELCFL (no DVFS)",
        "classic": "Classic FL",
        "fedcs": "FedCS",
        "fedl": "FEDL",
        "sl": "SL",
    }
