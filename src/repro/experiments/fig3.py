"""Fig. 3 — energy-cost reduction via the DVFS frequency determination.

Compares HELCFL with Algorithm 3 against HELCFL at max frequency (the
traditional TDMA behaviour). Algorithm 3 changes only device operating
frequencies — never the selection or the training math — so the two
have *identical* accuracy trajectories, and the max-frequency side is
a cost-model counterfactual of the HELCFL run rather than a second
training run: :func:`max_frequency_history` replays each round's TDMA
schedule at ``f_max``. The comparison isolates exactly the energy
effect the paper plots: joules spent until each desired accuracy was
reached, with and without DVFS.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from repro import wire
from repro.baselines.registry import strategy_labels
from repro.errors import ConfigurationError
from repro.experiments.fig2 import Fig2Result
from repro.experiments.runner import Environment
from repro.experiments.table1 import DEFAULT_TARGET_FRACTIONS, derive_table1
from repro.fl.history import TrainingHistory
from repro.network.tdma import simulate_tdma_round

__all__ = ["Fig3Entry", "Fig3Result", "derive_fig3", "max_frequency_history"]


@wire.record
@dataclass(frozen=True)
class Fig3Entry:
    """One bar pair of Fig. 3.

    Attributes:
        target: the desired accuracy level.
        energy_with_dvfs: joules to reach it with Algorithm 3.
        energy_without_dvfs: joules at max frequency.
        reduction_fraction: relative saving, e.g. 0.58 for the paper's
            58.25%; ``None`` when the target was never reached.
    """

    target: float
    energy_with_dvfs: Optional[float]
    energy_without_dvfs: Optional[float]
    reduction_fraction: Optional[float]


@dataclass
class Fig3Result:
    """DVFS energy study for one partition regime.

    Attributes:
        iid: partition regime.
        entries: one per accuracy target.
        dvfs_history: the Algorithm 3 run.
        max_frequency_history: the same run at max frequency
            (:func:`max_frequency_history`).
    """

    iid: bool
    entries: List[Fig3Entry]
    dvfs_history: TrainingHistory
    max_frequency_history: TrainingHistory

    @property
    def total_energy_reduction(self) -> float:
        """Whole-run energy saving fraction (all rounds)."""
        base = self.max_frequency_history.total_energy
        if base <= 0:
            return 0.0
        return (base - self.dvfs_history.total_energy) / base


wire.record(Fig3Result, mutable=True)


def max_frequency_history(
    history: TrainingHistory, environment: Environment
) -> TrainingHistory:
    """``history`` with every selected device at its ``f_max``.

    The max-frequency run selects, trains and scores exactly as the
    DVFS run did, so each round keeps its selection, losses and
    accuracies. Its cost fields come from
    :func:`~repro.network.tdma.simulate_tdma_round` over the round's
    selected devices with no frequency assignment, which sums the
    energies in the schedule's own order (compute finish, ties by
    device id); cumulative time and energy fold round by round as the
    trainer folds them. The result equals a trained ``helcfl-nodvfs``
    history record for record, to the bit.

    Args:
        history: a run of the ``helcfl`` scheme (or any run whose
            rounds the cost model alone determines).
        environment: the environment the run trained on.

    Raises:
        ConfigurationError: when a round does not replay from its
            recorded frequencies to its recorded delay and energy, or
            lost a device: a fault, a deadline cut or a moved channel
            gain degraded it, and a max-frequency run would have
            degraded differently.
    """
    settings = environment.settings
    population = environment.population
    records = []
    cumulative_time = cumulative_energy = 0.0
    for record in history.records:
        selected = population.take(
            [population.position_of(i) for i in record.selected_ids]
        )
        replay = partial(
            simulate_tdma_round,
            (),
            settings.payload_bits,
            settings.bandwidth_hz,
            population=selected,
        )
        recorded = replay(record.frequencies)
        if (
            record.dropped_ids
            or record.timeout_ids
            or recorded.round_delay != record.round_delay
            or recorded.total_energy != record.round_energy
        ):
            raise ConfigurationError(
                f"round {record.round_index} of {history.label!r} lost a "
                "device or does not replay from its recorded frequencies (a "
                "fault, a deadline cut or a moved channel gain changed it), "
                "so it has no max-frequency counterfactual"
            )
        timeline = replay()
        cumulative_time += timeline.round_delay
        cumulative_energy += timeline.total_energy
        records.append(
            dataclasses.replace(
                record,
                frequencies=dict(
                    zip(selected.device_ids.tolist(), selected.f_max.tolist())
                ),
                round_delay=timeline.round_delay,
                round_energy=timeline.total_energy,
                compute_energy=timeline.total_compute_energy,
                upload_energy=timeline.total_upload_energy,
                slack=timeline.total_slack,
                cumulative_time=cumulative_time,
                cumulative_energy=cumulative_energy,
            )
        )
    return TrainingHistory(
        label=strategy_labels()["helcfl-nodvfs"],
        stop_reason=history.stop_reason,
        records=records,
    )


def derive_fig3(
    fig2: Fig2Result,
    targets: Optional[Sequence[float]] = None,
    target_fractions: Sequence[float] = DEFAULT_TARGET_FRACTIONS,
) -> Fig3Result:
    """One panel of Fig. 3, read off a Fig. 2 sweep's HELCFL run.

    Args:
        fig2: a sweep that ran ``helcfl``, with its environment (a
            loaded Fig. 2 artifact has none to replay).
        targets: explicit absolute accuracy levels; when None, Table
            I's levels: ``target_fractions`` of the DVFS run's ceiling.
        target_fractions: ceiling fractions when ``targets`` is None.

    Raises:
        ConfigurationError: without a ``helcfl`` run or its
            environment, or when a round of it was degraded (see
            :func:`max_frequency_history`).
    """
    if "helcfl" not in fig2.histories or fig2.environment is None:
        raise ConfigurationError(
            "fig 3 needs a 'helcfl' history and the environment it ran on"
        )
    dvfs = fig2.histories["helcfl"]
    maxf = max_frequency_history(dvfs, fig2.environment)
    entries: List[Fig3Entry] = []
    for target in derive_table1(fig2, targets, target_fractions).targets:
        with_dvfs = dvfs.energy_to_accuracy(target)
        without = maxf.energy_to_accuracy(target)
        if with_dvfs is None or without is None or without <= 0:
            reduction = None
        else:
            reduction = (without - with_dvfs) / without
        entries.append(
            Fig3Entry(
                target=target,
                energy_with_dvfs=with_dvfs,
                energy_without_dvfs=without,
                reduction_fraction=reduction,
            )
        )
    return Fig3Result(
        iid=fig2.iid,
        entries=entries,
        dvfs_history=dvfs,
        max_frequency_history=maxf,
    )
