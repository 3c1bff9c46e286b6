"""Paper-scale cost-model study (no training required).

The scaled default profile trains a real model; this module instead
analyzes the *cost model alone* at the paper's exact constants
(``pi = 1e7``, 500 samples/user, SqueezeNet-sized 40 Mbit payload,
``Z = 2 MHz``, ``p = 0.2 W``) — Monte Carlo over heterogeneous fleets,
measuring each scheme's expected round delay, round energy, slack, and
Algorithm 3's saving, at the magnitudes the paper's testbed would see.

Because no learning happens, a study over dozens of fleets runs in
milliseconds, making this the right tool for sweeping cost-side
questions (e.g. how savings scale with payload size) at full scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.registry import build_strategy
from repro.data.dataset import ArrayDataset
from repro.devices.fleet import FleetSpec, make_fleet
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError
from repro.network.tdma import simulate_tdma_round
from repro.rng import derive_seed

__all__ = ["CostSummary", "CostModelResult", "run_cost_model_study"]


@dataclass(frozen=True)
class CostSummary:
    """Mean/std cost statistics of one scheme across trials.

    Attributes:
        round_delay_s: per-round delay (mean, std).
        round_energy_j: per-round total energy (mean, std).
        slack_s: per-round total slack at the assigned frequencies.
        dvfs_saving_fraction: energy saved by the scheme's frequency
            assignment versus max frequency on the same selections.
    """

    round_delay_s: Tuple[float, float]
    round_energy_j: Tuple[float, float]
    slack_s: Tuple[float, float]
    dvfs_saving_fraction: Tuple[float, float]


@dataclass
class CostModelResult:
    """Cost summaries per scheme plus the study's parameters."""

    num_users: int
    samples_per_user: int
    payload_bits: float
    trials: int
    rounds_per_trial: int
    summaries: Dict[str, CostSummary]


def _sized_datasets(num_users: int, samples_per_user: int) -> List[ArrayDataset]:
    """Minimal datasets whose only meaningful property is their size."""
    template_inputs = np.zeros((samples_per_user, 1))
    template_labels = np.zeros(samples_per_user, dtype=np.int64)
    return [
        ArrayDataset(template_inputs, template_labels)
        for _ in range(num_users)
    ]


def run_cost_model_study(
    strategies: Sequence[str] = ("helcfl", "classic", "fedcs", "fedl"),
    num_users: int = 100,
    samples_per_user: int = 500,
    payload_bits: float = 1.25e6 * 32,
    bandwidth_hz: float = 2e6,
    fraction: float = 0.1,
    decay: float = 0.9,
    cycles_per_sample: float = 1e7,
    trials: int = 20,
    rounds_per_trial: int = 10,
    seed: int = 0,
    fleet_spec: Optional[FleetSpec] = None,
) -> CostModelResult:
    """Monte Carlo the per-round cost model at paper scale.

    For each trial a fresh heterogeneous fleet is drawn; each strategy
    then runs ``rounds_per_trial`` selection+frequency rounds (stateful
    strategies keep their counters within a trial) and every round's
    TDMA timeline is recorded, together with the max-frequency timeline
    of the same selection for the DVFS-saving comparison.

    Args:
        strategies: registry names to study.
        num_users: population size (paper: 100).
        samples_per_user: ``|D_q|`` (paper: 500 = 50 000 / 100).
        payload_bits: ``C_model`` (default: SqueezeNet-sized, 40 Mbit).
        bandwidth_hz: ``Z``.
        fraction: selection fraction ``C``.
        decay: HELCFL's ``eta``.
        cycles_per_sample: ``pi`` (paper: 1e7).
        trials: independent fleets.
        rounds_per_trial: rounds simulated per fleet.
        seed: master seed.
        fleet_spec: overrides the fleet parameters entirely.

    Returns:
        The assembled :class:`CostModelResult`.
    """
    if trials <= 0 or rounds_per_trial <= 0:
        raise ConfigurationError(
            f"trials and rounds_per_trial must be positive, got "
            f"{trials} and {rounds_per_trial}"
        )
    spec = fleet_spec or FleetSpec(cycles_per_sample=cycles_per_sample)
    datasets = _sized_datasets(num_users, samples_per_user)

    collected: Dict[str, Dict[str, List[float]]] = {
        name: {"delay": [], "energy": [], "slack": [], "saving": []}
        for name in strategies
    }

    for trial in range(trials):
        fleet = make_fleet(
            datasets, spec, seed=derive_seed(seed, "fleet", str(trial))
        )
        population = DevicePopulation.from_devices(fleet)
        for name in strategies:
            selection, policy = build_strategy(
                name,
                devices=fleet,
                fraction=fraction,
                payload_bits=payload_bits,
                bandwidth_hz=bandwidth_hz,
                decay=decay,
                seed=derive_seed(seed, "sel", name, str(trial)),
            )
            selection.reset()
            for round_index in range(1, rounds_per_trial + 1):
                positions = selection.select_population(
                    round_index, population
                )
                chosen = population.take(positions)
                selected = [fleet[position] for position in positions.tolist()]
                frequencies = policy.assign(
                    selected,
                    payload_bits,
                    bandwidth_hz,
                    round_index=round_index,
                    population=chosen,
                )
                timeline = simulate_tdma_round(
                    selected,
                    payload_bits,
                    bandwidth_hz,
                    frequencies,
                    population=chosen,
                )
                baseline = simulate_tdma_round(
                    selected, payload_bits, bandwidth_hz, population=chosen
                )
                stats = collected[name]
                stats["delay"].append(timeline.round_delay)
                stats["energy"].append(timeline.total_energy)
                stats["slack"].append(timeline.total_slack)
                saving = (
                    1.0 - timeline.total_energy / baseline.total_energy
                    if baseline.total_energy > 0
                    else 0.0
                )
                stats["saving"].append(saving)

    def pair(values: List[float]) -> Tuple[float, float]:
        arr = np.asarray(values)
        return float(arr.mean()), float(arr.std())

    summaries = {
        name: CostSummary(
            round_delay_s=pair(stats["delay"]),
            round_energy_j=pair(stats["energy"]),
            slack_s=pair(stats["slack"]),
            dvfs_saving_fraction=pair(stats["saving"]),
        )
        for name, stats in collected.items()
    }
    return CostModelResult(
        num_users=num_users,
        samples_per_user=samples_per_user,
        payload_bits=payload_bits,
        trials=trials,
        rounds_per_trial=rounds_per_trial,
        summaries=summaries,
    )
