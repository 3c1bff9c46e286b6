"""The synchronous FL training loop (the paper's Algorithm 1).

Each round: a :class:`~repro.fl.strategy.SelectionStrategy` picks
``Gamma_j``, a :class:`~repro.fl.strategy.FrequencyPolicy` assigns CPU
frequencies, the TDMA simulator produces the round's delay/energy
timeline (Eqs. 4–11), selected clients run their local updates
(Eq. 3) through a pluggable :class:`~repro.fl.execution.ExecutionBackend`,
and the server FedAvg-integrates the results (Eq. 18). The loop
honours the total-training deadline (constraint 14) and optional
convergence exits, and records everything into a
:class:`~repro.fl.history.TrainingHistory`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError, TrainingError
from repro.faults import FaultInjector, FaultPlan, RoundFaults
from repro.fl.client import LocalTrainer
from repro.fl.execution import (
    STATUS_DROPPED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ExecutionBackend,
    LocalUpdateSpec,
    RoundResult,
    SerialBackend,
)
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.server import FederatedServer
from repro.fl.strategy import (
    FrequencyPolicy,
    MaxFrequencyPolicy,
    SelectionStrategy,
    over_selection_extras_population,
)
from repro.network.tdma import RoundTimeline, simulate_tdma_round
from repro.obs import (
    NOOP_SPAN,
    AggregationEvent,
    BatteryDropEvent,
    ClientDroppedEvent,
    DeviceRoundEvent,
    EvalEvent,
    FaultInjectedEvent,
    FrequencyAssignmentEvent,
    RoundDegradedEvent,
    RunObserver,
    RunStopEvent,
    SelectionEvent,
    StopReason,
    TimelineEvent,
)

__all__ = ["TrainerConfig", "FederatedTrainer"]

_LOGGER = logging.getLogger("repro.fl.trainer")


@dataclass
class TrainerConfig:
    """Knobs of one federated training run.

    Attributes:
        rounds: maximum number of FL iterations ``J``.
        bandwidth_hz: the MEC uplink resource blocks ``Z`` (paper:
            2 MHz).
        learning_rate: local GD learning rate ``tau``.
        local_steps: local gradient steps per round (paper: 1).
        batch_size: local mini-batch size; ``None`` = full batch
            (exact Eq. 3).
        eval_every: evaluate the global model every this many rounds
            (always also on the final round).
        deadline_s: total-training deadline (constraint 14); the run
            stops once the simulated clock passes it. ``None`` = no
            deadline.
        target_accuracy: optional convergence exit — stop once test
            accuracy reaches this value.
        convergence_patience: optional plateau exit (Algorithm 1's
            "checks whether this newly created global ML model
            converges") — stop after this many consecutive evaluations
            without the test loss improving by at least
            ``convergence_min_delta``. ``None`` disables the check.
        convergence_min_delta: minimum test-loss improvement that
            resets the plateau counter.
        lr_decay: multiplicative learning-rate decay applied every
            ``lr_decay_period`` rounds (server-controlled, broadcast
            with the model); 1.0 (the paper's setting) disables decay.
        lr_decay_period: rounds between decay applications.
        keep_best_model: snapshot the global parameters at every new
            best test accuracy; the run's best model is then available
            as ``trainer.best_model_params`` (the final global model
            can sit below the best with noisy evaluation).
        enforce_battery: when True, devices with batteries drain them
            each round; a device that cannot afford its round energy
            shuts down and its update is dropped from aggregation.
        minibatch_seed: roots the per-``(round, device)`` mini-batch
            sampling seeds when ``batch_size`` is set, so stochastic
            local updates reproduce identically under every execution
            backend.
        round_deadline_s: hard per-round deadline (seconds of simulated
            time). Clients whose upload cannot complete by it are cut
            off (``"timeout"``), charged only the energy they actually
            spent, and excluded from aggregation; the round then lasts
            exactly this long. ``None`` (the default) disables the
            cut-off.
        over_select_margin: FedCS-style dropout insurance — select this
            many extra users beyond the strategy's pick and aggregate
            only the first ``N`` survivors (selection order), where
            ``N`` is the strategy's own count. 0 (the default) disables
            over-selection.
        checkpoint_every: write an atomic
            :class:`~repro.fl.checkpoint.TrainerCheckpoint` to the
            trainer's ``checkpoint_path`` every this many completed
            rounds (a killed run then resumes from its last snapshot,
            bitwise identical to an uninterrupted one). ``None`` (the
            default) disables mid-run checkpointing; the trainer still
            captures ``trainer.last_checkpoint`` in memory at run end.
    """

    rounds: int = 300
    bandwidth_hz: float = 2e6
    learning_rate: float = 0.1
    local_steps: int = 1
    batch_size: Optional[int] = None
    eval_every: int = 1
    deadline_s: Optional[float] = None
    target_accuracy: Optional[float] = None
    convergence_patience: Optional[int] = None
    convergence_min_delta: float = 1e-4
    lr_decay: float = 1.0
    lr_decay_period: int = 100
    keep_best_model: bool = False
    enforce_battery: bool = False
    minibatch_seed: int = 0
    round_deadline_s: Optional[float] = None
    over_select_margin: int = 0
    checkpoint_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ConfigurationError(f"rounds must be positive, got {self.rounds}")
        if self.bandwidth_hz <= 0:
            raise ConfigurationError(
                f"bandwidth_hz must be positive, got {self.bandwidth_hz}"
            )
        if self.eval_every <= 0:
            raise ConfigurationError(
                f"eval_every must be positive, got {self.eval_every}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be positive when set, got {self.deadline_s}"
            )
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            raise ConfigurationError(
                f"target_accuracy must be in (0, 1], got {self.target_accuracy}"
            )
        if self.convergence_patience is not None and self.convergence_patience <= 0:
            raise ConfigurationError(
                "convergence_patience must be positive when set, got "
                f"{self.convergence_patience}"
            )
        if self.convergence_min_delta < 0:
            raise ConfigurationError(
                "convergence_min_delta must be non-negative, got "
                f"{self.convergence_min_delta}"
            )
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigurationError(
                f"lr_decay must be in (0, 1], got {self.lr_decay}"
            )
        if self.lr_decay_period <= 0:
            raise ConfigurationError(
                f"lr_decay_period must be positive, got {self.lr_decay_period}"
            )
        if self.round_deadline_s is not None and self.round_deadline_s <= 0:
            raise ConfigurationError(
                "round_deadline_s must be positive when set, got "
                f"{self.round_deadline_s}"
            )
        if self.over_select_margin < 0:
            raise ConfigurationError(
                "over_select_margin must be non-negative, got "
                f"{self.over_select_margin}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ConfigurationError(
                "checkpoint_every must be positive when set, got "
                f"{self.checkpoint_every}"
            )

    def learning_rate_at(self, round_index: int) -> float:
        """The broadcast learning rate for 1-based round ``round_index``."""
        if round_index <= 0:
            raise ConfigurationError(
                f"round_index must be positive, got {round_index}"
            )
        applications = (round_index - 1) // self.lr_decay_period
        return self.learning_rate * self.lr_decay**applications

    def local_update_spec(self) -> LocalUpdateSpec:
        """The :class:`LocalUpdateSpec` execution backends train with."""
        return LocalUpdateSpec(
            learning_rate=self.learning_rate,
            local_steps=self.local_steps,
            batch_size=self.batch_size,
            seed=self.minibatch_seed,
        )


class FederatedTrainer:
    """Runs Algorithm 1 for a given selection strategy and policy.

    Args:
        server: the FLCC holding the global model and test set.
        devices: the full user population ``V``.
        selection: per-round user selection strategy.
        frequency_policy: per-round CPU frequency assignment; defaults
            to max frequency (traditional TDMA FL).
        config: run configuration.
        label: history label (e.g. ``"HELCFL"``).
        compression: optional
            :class:`repro.compression.CompressionPipeline`; when set,
            each client's update delta is compressed, the *actual*
            compressed payload drives that client's upload delay and
            energy, and the server aggregates the lossy reconstruction.
            The frequency policy still plans with the nominal
            ``server.payload_bits`` (the FLCC cannot know compressed
            sizes before training happens). Compression state is
            per-device and updated in selection order in the main
            process, so it is backend-independent.
        channel_models: optional mapping from device id to a channel
            model exposing ``sample_gain()`` (e.g.
            :class:`repro.network.RayleighFadingChannel`); when set,
            every mapped device's channel gain is re-drawn at the start
            of each round, modelling per-round fading. Selection and
            frequency policies see the fresh gains (the FLCC polls
            resource information each round, Algorithm 1 line 1).
        backend: the :class:`~repro.fl.execution.ExecutionBackend` that
            fans local updates out across workers; defaults to
            :class:`~repro.fl.execution.SerialBackend`. The trainer
            binds the backend at the start of every :meth:`run` but
            never closes it — the caller owns pooled backends' worker
            lifetimes (use them as context managers).
        observer: a :class:`repro.obs.RunObserver` receiving the run's
            typed events (selection, frequency assignment, timeline,
            battery drops, aggregation, evaluation, run stop) and
            aggregating stage timers. ``None`` (the default) observes
            into a private registry with tracing off. Observation is
            read-only: enabling it leaves the returned history bitwise
            identical.
        faults: an optional :class:`repro.faults.FaultPlan` (or a
            pre-built :class:`repro.faults.FaultInjector`) describing
            the seeded chaos to inject into the run — device dropouts,
            stragglers, channel outages/degradations, battery deaths.
            ``None`` (the default) and an *empty* plan both take the
            exact faults-off code path, so they are bitwise identical
            to each other.
        checkpoint_path: where ``config.checkpoint_every`` snapshots
            are written (atomically; see
            :mod:`repro.fl.checkpoint`). ``None`` (the default)
            disables on-disk checkpointing even when
            ``checkpoint_every`` is set. Checkpointing and resuming
            are not supported together with ``compression`` or
            ``channel_models`` (their mid-run state is not captured).

    Attributes:
        ledger: an :class:`repro.energy.EnergyLedger` accumulating
            per-device energy across the run (reset by :meth:`run`).
        observer: the bound :class:`repro.obs.RunObserver`; its
            ``metrics`` carry the run's timers and counters even when
            tracing is off.
        last_checkpoint: the
            :class:`~repro.fl.checkpoint.TrainerCheckpoint` captured
            when :meth:`run` last completed (in memory, regardless of
            ``checkpoint_every``); ``None`` before the first run.
    """

    def __init__(
        self,
        server: FederatedServer,
        devices: Sequence[UserDevice],
        selection: SelectionStrategy,
        frequency_policy: Optional[FrequencyPolicy] = None,
        config: Optional[TrainerConfig] = None,
        label: str = "",
        compression=None,
        channel_models=None,
        backend: Optional[ExecutionBackend] = None,
        observer: Optional[RunObserver] = None,
        faults=None,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        if not devices:
            raise TrainingError("cannot train with an empty device population")
        if faults is None:
            self.fault_injector: Optional[FaultInjector] = None
        elif isinstance(faults, FaultInjector):
            self.fault_injector = faults
        elif isinstance(faults, FaultPlan):
            self.fault_injector = FaultInjector(faults)
        else:
            raise ConfigurationError(
                "faults must be a FaultPlan or FaultInjector, got "
                f"{type(faults).__name__}"
            )
        self.server = server
        self.devices = list(devices)
        self.selection = selection
        self.frequency_policy = frequency_policy or MaxFrequencyPolicy()
        self.config = config or TrainerConfig()
        self.label = label
        self.compression = compression
        self.channel_models = dict(channel_models or {})
        self.backend = backend or SerialBackend()
        self.observer = observer or RunObserver()
        self.population: Optional[DevicePopulation] = None
        from repro.energy.accounting import EnergyLedger

        self.ledger = EnergyLedger(metrics=self.observer.metrics)
        # Kept for introspection (e.g. the LR schedule is observable as
        # ``trainer.local_trainer.learning_rate``); the actual per-round
        # training happens inside the execution backend.
        self.local_trainer = LocalTrainer(
            learning_rate=self.config.learning_rate,
            local_steps=self.config.local_steps,
            batch_size=self.config.batch_size,
        )
        self.best_model_params = None
        self.best_model_accuracy = 0.0
        self.checkpoint_path = checkpoint_path
        self.last_checkpoint = None

    # ------------------------------------------------------------------
    def _run_clients(
        self, round_index: int, selected: Sequence[UserDevice]
    ) -> RoundResult:
        """Fan the round's local updates out through the backend.

        Compression (when configured) is applied afterwards in
        selection order: per-device residual state must evolve
        deterministically no matter how the backend scheduled the
        training itself.
        """
        global_params = self.server.broadcast()
        updates = self.backend.run_round(
            round_index,
            global_params,
            selected,
            self.local_trainer.learning_rate,
        )
        if self.compression is not None:
            compressed = []
            for update in updates:
                received = self.compression.process(
                    update.device_id, global_params, update.params
                )
                compressed.append(
                    replace(
                        update,
                        params=received.params,
                        payload_bits=received.payload_bits,
                    )
                )
            updates = compressed
        return RoundResult(round_index=round_index, updates=tuple(updates))

    def _apply_battery(
        self, selected: Sequence[UserDevice], timeline, result: RoundResult
    ) -> Tuple[RoundResult, Tuple[int, ...]]:
        """Drain batteries; mark devices that cannot pay as dropped.

        Every device pays the energy its timeline entry says it spent —
        including fault-lost devices' partial work. Only devices whose
        update would otherwise have reached the server show up in the
        returned battery-drop tuple (a fault already claimed the rest).
        """
        if not self.config.enforce_battery:
            return result, ()
        per_device = timeline.by_device()
        device_index = {d.device_id: d for d in selected}
        dropped = []
        for update in result:
            device = device_index[update.device_id]
            battery = device.battery
            if battery is None:
                continue
            entry = per_device[update.device_id]
            paid = battery.drain(entry.total_energy)
            if not paid and update.status == STATUS_OK:
                dropped.append(update.device_id)
        statuses = {device_id: STATUS_DROPPED for device_id in dropped}
        return result.with_statuses(statuses), tuple(dropped)

    def _emit_client_drops(
        self,
        round_index: int,
        fault_round: Optional[RoundFaults],
        timeline: RoundTimeline,
        battery_dropped: Tuple[int, ...],
        dropped_ids: Tuple[int, ...],
        timeout_ids: Tuple[int, ...],
    ) -> None:
        """Emit one :class:`ClientDroppedEvent` per lost client."""
        causes = {}
        if fault_round is not None:
            for device_id in fault_round.drop_before:
                causes[device_id] = ("dropout", "before_compute")
            for device_id in fault_round.drop_during:
                causes[device_id] = ("dropout", "compute")
            for device_id in fault_round.upload_outage:
                causes[device_id] = ("channel_outage", "upload")
        for device_id in battery_dropped:
            causes.setdefault(device_id, ("battery", "round"))
        if fault_round is not None:
            for device_id in fault_round.battery_death:
                causes.setdefault(device_id, ("battery_death", "round"))
        per_device = timeline.by_device()
        for device_id in dropped_ids:
            cause, phase = causes.get(device_id, ("dropout", "round"))
            self.observer.emit(
                ClientDroppedEvent(
                    round_index=round_index,
                    device_id=device_id,
                    cause=cause,
                    phase=phase,
                )
            )
        for device_id in timeout_ids:
            entry = per_device.get(device_id)
            phase = "compute"
            if entry is not None and (
                entry.slack > 0.0 or entry.upload_delay > 0.0
            ):
                phase = "upload"
            self.observer.emit(
                ClientDroppedEvent(
                    round_index=round_index,
                    device_id=device_id,
                    cause="round_deadline",
                    phase=phase,
                )
            )

    def _capture_checkpoint(
        self,
        round_index: int,
        history: TrainingHistory,
        cumulative_time: float,
        cumulative_energy: float,
        plateau,
    ):
        """Freeze every piece of cross-round state after ``round_index``."""
        from repro.fl.checkpoint import TrainerCheckpoint

        ledger_state = {
            "rounds_recorded": self.ledger.rounds_recorded,
            "devices": {
                str(device_id): {
                    "compute_joules": entry.compute_joules,
                    "upload_joules": entry.upload_joules,
                    "slack_seconds": entry.slack_seconds,
                    "rounds": entry.rounds,
                }
                for device_id, entry in sorted(self.ledger.devices.items())
            },
        }
        return TrainerCheckpoint(
            round_index=round_index,
            label=self.label,
            strategy_class=type(self.selection).__name__,
            model_params=self.server.broadcast(),
            history=history.to_dict(),
            cumulative_time=cumulative_time,
            cumulative_energy=cumulative_energy,
            ledger=ledger_state,
            batteries={
                d.device_id: d.battery.charge_joules
                for d in self.devices
                if d.battery is not None
            },
            channel_gains={
                d.device_id: d.radio.channel_gain for d in self.devices
            },
            selection_state=self.selection.state_dict(),
            plateau=(
                {
                    "best": plateau.best,
                    "stale_count": plateau.stale_count,
                    "converged": plateau.converged,
                }
                if plateau is not None
                else None
            ),
            best_model_params=self.best_model_params,
            best_model_accuracy=self.best_model_accuracy,
        )

    def _apply_checkpoint(self, checkpoint, plateau) -> TrainingHistory:
        """Restore a checkpoint into this trainer; returns its history.

        Called by :meth:`run` after ``selection.reset()`` and the
        ledger rebuild but before the population snapshot, so the
        array view is built from the restored device state.
        """
        from repro.energy.accounting import DeviceEnergy
        from repro.fl.checkpoint import TrainerCheckpoint

        if not isinstance(checkpoint, TrainerCheckpoint):
            raise ConfigurationError(
                "resume_from must be a TrainerCheckpoint, got "
                f"{type(checkpoint).__name__}"
            )
        strategy_class = type(self.selection).__name__
        if checkpoint.strategy_class != strategy_class:
            raise ConfigurationError(
                f"checkpoint was written by {checkpoint.strategy_class}; "
                f"refusing to resume under {strategy_class}"
            )
        if checkpoint.round_index > self.config.rounds:
            raise ConfigurationError(
                f"checkpoint is at round {checkpoint.round_index}, past "
                f"this run's {self.config.rounds} rounds"
            )
        self.server.model.set_flat_params(checkpoint.model_params.copy())
        self.selection.load_state_dict(checkpoint.selection_state)
        self.ledger.rounds_recorded = int(
            checkpoint.ledger.get("rounds_recorded", 0)
        )
        self.ledger.devices.clear()
        for device_id, raw in checkpoint.ledger.get("devices", {}).items():
            entry = DeviceEnergy(int(device_id))
            entry.compute_joules = float(raw["compute_joules"])
            entry.upload_joules = float(raw["upload_joules"])
            entry.slack_seconds = float(raw["slack_seconds"])
            entry.rounds = int(raw["rounds"])
            self.ledger.devices[int(device_id)] = entry
        device_index = {d.device_id: d for d in self.devices}
        for device_id, charge in checkpoint.batteries.items():
            device = device_index.get(device_id)
            if device is not None and device.battery is not None:
                device.battery.charge_joules = float(charge)
        for device_id, gain in checkpoint.channel_gains.items():
            device = device_index.get(device_id)
            if device is not None:
                device.radio.channel_gain = float(gain)
        if plateau is not None and checkpoint.plateau is not None:
            plateau.best = checkpoint.plateau.get("best")
            plateau.stale_count = int(checkpoint.plateau.get("stale_count", 0))
            plateau.converged = bool(checkpoint.plateau.get("converged"))
        self.best_model_params = (
            checkpoint.best_model_params.copy()
            if checkpoint.best_model_params is not None
            else None
        )
        self.best_model_accuracy = checkpoint.best_model_accuracy
        return TrainingHistory.from_dict(checkpoint.history)

    def run(self, resume_from=None, stop_after=None) -> TrainingHistory:
        """Execute the full training loop and return its history.

        Args:
            resume_from: an optional
                :class:`~repro.fl.checkpoint.TrainerCheckpoint` to
                restore before training; the loop then continues from
                ``resume_from.round_index + 1`` and the returned
                history (and every artifact derived from it) is
                bitwise identical to an uninterrupted run's.
            stop_after: optional replay cut-off — pause the loop after
                this round *without* the final-round semantics
                (``config.rounds`` still governs the forced last
                evaluation), leaving ``trainer.last_checkpoint``
                holding exactly the state an uninterrupted run carried
                out of that round. Used by trace reconstruction
                (:mod:`repro.campaign.resume`).
        """
        config = self.config
        observer = self.observer
        if stop_after is not None and stop_after <= 0:
            raise ConfigurationError(
                f"stop_after must be positive when set, got {stop_after}"
            )
        history = TrainingHistory(label=self.label)
        self.selection.reset()
        if self.compression is not None:
            self.compression.reset()
        plateau = None
        if config.convergence_patience is not None:
            from repro.analysis.convergence import PlateauDetector

            plateau = PlateauDetector(
                patience=config.convergence_patience,
                min_delta=config.convergence_min_delta,
                mode="min",
            )
        cumulative_time = 0.0
        cumulative_energy = 0.0

        from repro.energy.accounting import EnergyLedger

        self.ledger = EnergyLedger(metrics=observer.metrics)
        device_index = {d.device_id: d for d in self.devices}
        checkpointing = (
            config.checkpoint_every is not None
            and self.checkpoint_path is not None
        )
        if (checkpointing or resume_from is not None) and (
            self.compression is not None or self.channel_models
        ):
            raise ConfigurationError(
                "checkpoint/resume does not capture compression or "
                "channel-model state; disable checkpointing or drop "
                "those features"
            )
        start_round = 1
        if resume_from is not None:
            history = self._apply_checkpoint(resume_from, plateau)
            cumulative_time = resume_from.cumulative_time
            cumulative_energy = resume_from.cumulative_energy
            start_round = resume_from.round_index + 1
            _LOGGER.info(
                "run %r resuming from checkpointed round %d",
                self.label,
                resume_from.round_index,
            )
        # Population-scale array view of the fleet: built once, kept in
        # sync with per-round fading, and sliced per round for
        # selection, frequency assignment and TDMA staging.
        population = DevicePopulation.from_devices(self.devices)
        self.population = population
        position_by_id = {
            d.device_id: position for position, d in enumerate(self.devices)
        }
        self.backend.observer = observer
        self.backend.bind(
            self.server.model, config.local_update_spec(), self.devices
        )
        _LOGGER.info(
            "run %r starting: %d rounds max, %d devices, backend=%s",
            self.label,
            config.rounds,
            len(self.devices),
            self.backend.name,
        )

        # The run-level span. A resumed attempt continues a run whose
        # first attempt already wrote the span_start, so it only emits
        # the close — the finished trace carries exactly one pair.
        run_span = observer.span(
            "run",
            parent_id=observer.parent_span_id,
            resources=True,
            emit_start=resume_from is None,
        )
        round_span = NOOP_SPAN

        stop_reason = StopReason.ROUNDS_EXHAUSTED
        round_index = start_round - 1
        injector = self.fault_injector
        if injector is not None and injector.plan.is_empty:
            # An empty plan is contractually a no-op: take the exact
            # faults-off code path so histories and traces stay bitwise
            # identical to a run with no injector at all.
            injector = None
        chaos_active = (
            injector is not None or config.round_deadline_s is not None
        )
        try:
            for round_index in range(start_round, config.rounds + 1):
                round_span = observer.span(
                    "round",
                    span_id=f"round-{round_index}",
                    parent_id="run",
                    round_index=round_index,
                )
                # Per-round fading: refresh mapped devices' channel gains
                # before selection so the FLCC plans with current info.
                for device_id, model in self.channel_models.items():
                    device = device_index.get(device_id)
                    if device is not None:
                        gain = float(model.sample_gain())
                        device.radio.channel_gain = gain
                        population.set_channel_gains(
                            (position_by_id[device_id],), (gain,)
                        )

                with observer.timer("selection"), observer.span(
                    "selection",
                    span_id=f"round-{round_index}/selection",
                    parent_id=f"round-{round_index}",
                    round_index=round_index,
                ):
                    positions = self.selection.select_population(
                        round_index, population
                    )
                    if positions is not None:
                        selected = [
                            self.devices[position]
                            for position in positions.tolist()
                        ]
                    else:
                        selected = self.selection.select(
                            round_index, self.devices
                        )
                if not selected:
                    raise TrainingError(
                        f"selection produced no users in round {round_index}"
                    )
                if positions is None:
                    # Strategy implementing only select(): recover the
                    # positions frequency assignment and TDMA slice by.
                    positions = np.fromiter(
                        (position_by_id[d.device_id] for d in selected),
                        dtype=np.int64,
                        count=len(selected),
                    )
                target_count = len(selected)
                if config.over_select_margin > 0:
                    extra_positions = over_selection_extras_population(
                        population,
                        positions,
                        config.over_select_margin,
                        self.server.payload_bits,
                        config.bandwidth_hz,
                    )
                    selected = list(selected) + [
                        self.devices[position]
                        for position in extra_positions.tolist()
                    ]
                    positions = np.concatenate((positions, extra_positions))
                selected_ids = tuple(d.device_id for d in selected)
                selected_population = population.take(positions)
                observer.emit(
                    SelectionEvent(
                        round_index=round_index, selected_ids=selected_ids
                    )
                )
                self.local_trainer.learning_rate = config.learning_rate_at(
                    round_index
                )
                with observer.timer("frequency_assignment"), observer.span(
                    "frequency_assignment",
                    span_id=f"round-{round_index}/frequency_assignment",
                    parent_id=f"round-{round_index}",
                    round_index=round_index,
                ):
                    frequencies = self.frequency_policy.assign(
                        selected,
                        self.server.payload_bits,
                        config.bandwidth_hz,
                        round_index=round_index,
                        population=selected_population,
                    )
                observer.emit(
                    FrequencyAssignmentEvent(
                        round_index=round_index, frequencies=dict(frequencies)
                    )
                )

                fault_round = (
                    injector.plan_round(round_index, selected_ids)
                    if injector is not None
                    else None
                )
                if fault_round:
                    for injected in fault_round.injected:
                        observer.emit(
                            FaultInjectedEvent(
                                round_index=round_index,
                                device_id=injected.device_id,
                                fault=injected.fault,
                                detail=injected.detail,
                                magnitude=injected.magnitude,
                            )
                        )
                    observer.metrics.inc(
                        "faults_injected", float(len(fault_round.injected))
                    )

                pre_dropped = (
                    fault_round.drop_before if fault_round else frozenset()
                )
                active = [
                    d for d in selected if d.device_id not in pre_dropped
                ]
                active_population = selected_population
                reassigned = False
                if pre_dropped and active:
                    # Algorithm 3's slack chain planned around the
                    # dropped devices' uploads: recompute the schedule
                    # over the survivors' population slice so successors
                    # do not idle at stale frequencies.
                    keep = np.fromiter(
                        (d.device_id not in pre_dropped for d in selected),
                        dtype=bool,
                        count=len(selected),
                    )
                    active_population = population.take(positions[keep])
                    with observer.timer("frequency_assignment"), observer.span(
                        "frequency_reassignment",
                        span_id=f"round-{round_index}/frequency_reassignment",
                        parent_id=f"round-{round_index}",
                        round_index=round_index,
                    ):
                        frequencies = self.frequency_policy.assign(
                            active,
                            self.server.payload_bits,
                            config.bandwidth_hz,
                            round_index=round_index,
                            population=active_population,
                        )
                    observer.emit(
                        FrequencyAssignmentEvent(
                            round_index=round_index,
                            frequencies=dict(frequencies),
                        )
                    )
                    observer.metrics.inc("frequency_reassignments")
                    reassigned = True

                if active:
                    with observer.span(
                        "local_updates",
                        span_id=f"round-{round_index}/local_updates",
                        parent_id=f"round-{round_index}",
                        round_index=round_index,
                    ):
                        result = self._run_clients(round_index, active)
                    timeline = simulate_tdma_round(
                        active,
                        self.server.payload_bits,
                        config.bandwidth_hz,
                        frequencies,
                        payloads=result.payloads or None,
                        population=active_population,
                        compute_scale=(
                            fault_round.compute_scale if fault_round else None
                        ),
                        drop_during=(
                            fault_round.drop_during if fault_round else None
                        ),
                        upload_outage=(
                            fault_round.upload_outage if fault_round else None
                        ),
                        upload_scale=(
                            fault_round.upload_scale if fault_round else None
                        ),
                        round_deadline=config.round_deadline_s,
                    )
                    result = result.with_statuses(timeline.outcomes())
                else:
                    # Every selected device dropped before computing:
                    # the round happens but costs nothing and changes
                    # nothing.
                    result = RoundResult(round_index=round_index, updates=())
                    timeline = RoundTimeline(
                        users=(),
                        round_delay=0.0,
                        total_energy=0.0,
                        total_compute_energy=0.0,
                        total_upload_energy=0.0,
                        total_slack=0.0,
                    )
                result, battery_dropped = self._apply_battery(
                    active, timeline, result
                )
                if fault_round and fault_round.battery_death:
                    # The battery empties at the round's end, killing
                    # the device's contribution whatever else happened.
                    for device_id in fault_round.battery_death:
                        device = device_index[device_id]
                        if device.battery is not None:
                            device.battery.kill()
                    result = result.with_statuses(
                        {
                            device_id: STATUS_DROPPED
                            for device_id in fault_round.battery_death
                        }
                    )
                if battery_dropped:
                    observer.emit(
                        BatteryDropEvent(
                            round_index=round_index,
                            dropped_ids=battery_dropped,
                        )
                    )

                integrated = result.survivors()
                if config.over_select_margin > 0:
                    integrated = integrated.first(target_count)

                status_by_id = {u.device_id: u.status for u in result}
                for device_id in pre_dropped:
                    status_by_id[device_id] = STATUS_DROPPED
                dropped_ids = tuple(
                    device_id
                    for device_id in selected_ids
                    if status_by_id.get(device_id) == STATUS_DROPPED
                )
                timeout_ids = tuple(
                    device_id
                    for device_id in selected_ids
                    if status_by_id.get(device_id) == STATUS_TIMEOUT
                )
                if dropped_ids:
                    observer.metrics.inc(
                        "clients_dropped", float(len(dropped_ids))
                    )
                if timeout_ids:
                    observer.metrics.inc(
                        "clients_timeout", float(len(timeout_ids))
                    )
                if chaos_active:
                    self._emit_client_drops(
                        round_index,
                        fault_round,
                        timeline,
                        battery_dropped,
                        dropped_ids,
                        timeout_ids,
                    )
                    if (
                        dropped_ids
                        or timeout_ids
                        or reassigned
                        or len(integrated) < target_count
                    ):
                        observer.emit(
                            RoundDegradedEvent(
                                round_index=round_index,
                                planned=len(selected),
                                aggregated=len(integrated),
                                dropped_ids=dropped_ids,
                                timeout_ids=timeout_ids,
                                reassigned_frequencies=reassigned,
                            )
                        )
                        observer.metrics.inc("rounds_degraded")

                # Feedback hook for statistical-utility strategies (e.g.
                # the Oort extension): report the observed losses of the
                # clients the server actually integrated — updates it
                # never saw must not shape future selection.
                self.selection.observe_losses(integrated.losses)
                self.ledger.record_round(timeline)
                if integrated:
                    with observer.timer("aggregation"), observer.span(
                        "aggregation",
                        span_id=f"round-{round_index}/aggregation",
                        parent_id=f"round-{round_index}",
                        round_index=round_index,
                    ):
                        self.server.aggregate(
                            integrated.params, integrated.weights
                        )
                observer.emit(
                    AggregationEvent(
                        round_index=round_index,
                        num_updates=len(integrated),
                        total_weight=float(sum(integrated.weights)),
                    )
                )

                cumulative_time += timeline.round_delay
                cumulative_energy += timeline.total_energy
                for entry in timeline.users:
                    observer.emit(
                        DeviceRoundEvent(
                            round_index=round_index,
                            device_id=entry.device_id,
                            frequency=entry.frequency,
                            f_max=device_index[entry.device_id].cpu.f_max,
                            compute_delay=entry.compute_delay,
                            upload_delay=entry.upload_delay,
                            slack=entry.slack,
                            compute_energy=entry.compute_energy,
                            upload_energy=entry.upload_energy,
                            outcome=entry.outcome,
                        )
                    )
                observer.emit(
                    TimelineEvent(
                        round_index=round_index,
                        round_delay=timeline.round_delay,
                        round_energy=timeline.total_energy,
                        compute_energy=timeline.total_compute_energy,
                        upload_energy=timeline.total_upload_energy,
                        slack=timeline.total_slack,
                        cumulative_time=cumulative_time,
                        cumulative_energy=cumulative_energy,
                    )
                )
                observer.metrics.inc("rounds")
                observer.metrics.inc("clients_selected", float(len(selected)))

                # Train loss is weighted over the updates the server
                # actually integrated: dropped clients may have trained,
                # but their contribution never reached the global model.
                total_weight = sum(u.weight for u in integrated)
                train_loss = (
                    sum(u.loss * u.weight for u in integrated) / total_weight
                    if total_weight
                    else 0.0
                )

                should_eval = (
                    round_index % config.eval_every == 0
                    or round_index == config.rounds
                )
                test_loss = test_accuracy = None
                if should_eval and self.server.test_dataset is not None:
                    with observer.span(
                        "eval",
                        span_id=f"round-{round_index}/eval",
                        parent_id=f"round-{round_index}",
                        round_index=round_index,
                    ):
                        test_loss, test_accuracy = self.server.evaluate()
                    observer.emit(
                        EvalEvent(
                            round_index=round_index,
                            test_loss=test_loss,
                            test_accuracy=test_accuracy,
                        )
                    )
                    observer.metrics.inc("evaluations")
                    if config.keep_best_model and (
                        self.best_model_params is None
                        or test_accuracy > self.best_model_accuracy
                    ):
                        self.best_model_params = self.server.broadcast()
                        self.best_model_accuracy = test_accuracy

                history.append(
                    RoundRecord(
                        round_index=round_index,
                        selected_ids=selected_ids,
                        frequencies=dict(frequencies),
                        round_delay=timeline.round_delay,
                        round_energy=timeline.total_energy,
                        compute_energy=timeline.total_compute_energy,
                        upload_energy=timeline.total_upload_energy,
                        slack=timeline.total_slack,
                        cumulative_time=cumulative_time,
                        cumulative_energy=cumulative_energy,
                        train_loss=train_loss,
                        test_accuracy=test_accuracy,
                        test_loss=test_loss,
                        dropped_ids=dropped_ids,
                        timeout_ids=timeout_ids,
                    )
                )
                _LOGGER.debug(
                    "round %d: %d selected, %d dropped, %d timed out, "
                    "delay %.4fs, energy %.4fJ, train_loss %.5f",
                    round_index,
                    len(selected),
                    len(dropped_ids),
                    len(timeout_ids),
                    timeline.round_delay,
                    timeline.total_energy,
                    train_loss,
                )

                # The checkpoint span opens every round, whether or not
                # the cadence writes one: span structure must stay a
                # pure function of the simulated run, and checkpoint
                # cadence is explicitly allowed to vary between a
                # killed run and its resumed retry.
                with observer.span(
                    "checkpoint",
                    span_id=f"round-{round_index}/checkpoint",
                    parent_id=f"round-{round_index}",
                    round_index=round_index,
                ):
                    if checkpointing and (
                        round_index % config.checkpoint_every == 0
                    ):
                        from repro.fl.checkpoint import save_checkpoint

                        with observer.timer("checkpoint"):
                            save_checkpoint(
                                self.checkpoint_path,
                                self._capture_checkpoint(
                                    round_index,
                                    history,
                                    cumulative_time,
                                    cumulative_energy,
                                    plateau,
                                ),
                            )
                        observer.metrics.inc("checkpoints_written")

                round_span.end()
                if (
                    config.deadline_s is not None
                    and cumulative_time >= config.deadline_s
                ):
                    stop_reason = StopReason.DEADLINE
                    break
                if (
                    config.target_accuracy is not None
                    and test_accuracy is not None
                    and test_accuracy >= config.target_accuracy
                ):
                    stop_reason = StopReason.TARGET_ACCURACY
                    break
                if (
                    plateau is not None
                    and test_loss is not None
                    and plateau.update(test_loss)
                ):
                    stop_reason = StopReason.PLATEAU
                    break
                if stop_after is not None and round_index >= stop_after:
                    # Replay cut-off: pause (not finish) the run here.
                    break
        except Exception:
            # Close the open spans first (idempotent), then leave a
            # terminal marker in the trace before propagating, so a
            # crashed chaos run's JSONL still pairs every span and ends
            # with a typed run_stop instead of cutting off mid-round.
            round_span.end()
            run_span.end()
            observer.emit(
                RunStopEvent(
                    round_index=round_index,
                    reason=StopReason.ERROR.value,
                    cumulative_time=cumulative_time,
                    cumulative_energy=cumulative_energy,
                    label=self.label,
                )
            )
            raise

        self.last_checkpoint = self._capture_checkpoint(
            round_index, history, cumulative_time, cumulative_energy, plateau
        )
        history.stop_reason = stop_reason.value
        run_span.end()
        observer.emit(
            RunStopEvent(
                round_index=round_index,
                reason=stop_reason.value,
                cumulative_time=cumulative_time,
                cumulative_energy=cumulative_energy,
                label=self.label,
            )
        )
        _LOGGER.info(
            "run %r stopped after %d rounds: %s (%.2fs simulated, %.2fJ)",
            self.label,
            round_index,
            stop_reason.value,
            cumulative_time,
            cumulative_energy,
        )
        return history
