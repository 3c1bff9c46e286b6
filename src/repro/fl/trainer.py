"""The synchronous FL training loop (the paper's Algorithm 1).

Each round: a :class:`~repro.fl.strategy.SelectionStrategy` picks
``Gamma_j``, a :class:`~repro.fl.strategy.FrequencyPolicy` assigns CPU
frequencies, the TDMA simulator produces the round's delay/energy
timeline (Eqs. 4–11) — which depends on no trained value, so it comes
first and settles who the server will integrate — and then selected
clients run their local updates (Eq. 3) through a pluggable
:class:`~repro.fl.execution.ExecutionBackend`, each trained block
folded into the FedAvg sum (Eq. 18) as soon as it is done. The loop
honours the total-training deadline (constraint 14) and optional
convergence exits, and records everything into a
:class:`~repro.fl.history.TrainingHistory`.

Inside :meth:`FederatedTrainer.run` a round is a fixed sequence of
private stage methods, each reading and writing one ``RoundState``
that points at the run's ``RunState`` (what survives from round to
round). A stage that owns a span opens it through
``FederatedTrainer._stage``; the span is the stage's only timer.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.battery import Battery
from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError, DeviceError, TrainingError
from repro.faults import FaultInjector, FaultPlan, RoundFaults
from repro.fl.aggregation import FedAvgAccumulator
from repro.fl.checkpoint import HistoryLog, TrainerCheckpoint, save_checkpoint
from repro.fl.client import RowSink
from repro.fl.execution import ExecutionBackend, LocalUpdateSpec, RoundResult, SerialBackend
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.server import FederatedServer
from repro.fl.strategy import (
    FrequencyPolicy,
    MaxFrequencyPolicy,
    SelectionStrategy,
    over_selection_extras_population,
)
from repro.network.tdma import (
    CLIENT_OUTCOMES,
    OUTCOME_DROPPED,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    RoundTimeline,
    simulate_tdma_round,
)
from repro.obs import (
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
from repro.obs.spans import round_span_id
from repro.sequential import sequential_sum

__all__ = ["TrainerConfig", "FederatedTrainer"]

_LOGGER = logging.getLogger("repro.fl.trainer")


# (field, minimum, may be None) of every integer count in TrainerConfig.
_COUNT_FIELDS = (
    ("rounds", 1, False),
    ("local_steps", 1, False),
    ("eval_every", 1, False),
    ("over_select_margin", 0, False),
    ("batch_size", 1, True),
    ("convergence_patience", 1, True),
    ("checkpoint_every", 1, True),
)


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
    keep_best_model: bool = False
    enforce_battery: bool = False
    minibatch_seed: int = 0
    round_deadline_s: Optional[float] = None
    over_select_margin: int = 0
    checkpoint_every: Optional[int] = None

    def __post_init__(self) -> None:
        # Counts are Python ints: a float or NaN would slip past a range
        # check and break the round arithmetic mid-run.
        for name, minimum, optional in _COUNT_FIELDS:
            value = getattr(self, name)
            if optional and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
                when = " when set" if optional else ""
                raise ConfigurationError(
                    f"{name} must be an integer >= {minimum}{when}, got {value!r}"
                )
        # Guards are written so that NaN fails them (``nan <= 0`` is False).
        if not (math.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise ConfigurationError(
                f"bandwidth_hz must be positive, got {self.bandwidth_hz}"
            )
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigurationError(
                f"deadline_s must be positive when set, got {self.deadline_s}"
            )
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            raise ConfigurationError(
                f"target_accuracy must be in (0, 1], got {self.target_accuracy}"
            )
        if not self.convergence_min_delta >= 0:
            raise ConfigurationError(
                "convergence_min_delta must be non-negative, got "
                f"{self.convergence_min_delta}"
            )
        if self.round_deadline_s is not None and not self.round_deadline_s > 0:
            raise ConfigurationError(
                "round_deadline_s must be positive when set, got "
                f"{self.round_deadline_s}"
            )

    def local_update_spec(self) -> LocalUpdateSpec:
        """The :class:`LocalUpdateSpec` execution backends train with."""
        return LocalUpdateSpec(
            local_steps=self.local_steps,
            batch_size=self.batch_size,
            seed=self.minibatch_seed,
        )


@dataclass
class RunState:
    """What one ``run()`` call carries from round to round (private).

    ``history``, ``plateau``, ``round_index`` and the two totals are
    what a checkpoint freezes; ``history_log`` is what the run's saves
    have written of ``history``; the rest is fixed when the run starts.
    """

    history: TrainingHistory
    plateau: object  # the PlateauDetector, when one is configured
    injector: FaultInjector  # over an empty plan when the trainer has none
    batteries: List[Tuple[int, Battery]]  # (population position, battery)
    history_log: HistoryLog = field(default_factory=HistoryLog)
    round_index: int = 0  # the round in flight, or the last finished
    cumulative_time: float = 0.0
    cumulative_energy: float = 0.0
    stop_reason: StopReason = StopReason.ROUNDS_EXHAUSTED


@dataclass
class RoundState:
    """One round's values, filled in stage by stage (private).

    Each group of fields is written by the stage named above it and
    read by the later ones.
    """

    run: RunState
    round_index: int
    # select: the population positions and ids of Gamma_j plus any
    # over-selected extras; target_count is the strategy's own N. The
    # active devices start computing — all of them until inject faults
    # drops some — and active_population, their slice, is what later
    # stages read every per-client number from.
    positions: Optional[np.ndarray] = None
    selected_ids: Tuple[int, ...] = ()
    target_count: int = 0
    active: Sequence[UserDevice] = ()
    active_population: Optional[DevicePopulation] = None
    # assign frequencies; replaced when inject faults re-assigns.
    frequencies: Optional[Dict[int, float]] = None
    # inject faults: the round's resolved faults, empty when none fire.
    faults: Optional[RoundFaults] = None
    reassigned: bool = False
    # simulate: the TDMA schedule, from payload sizes known up front.
    timeline: Optional[RoundTimeline] = None
    # settle: the positions in ``active`` of the clients the server will
    # integrate, the lost ids, and the ids whose battery could not pay.
    integrating: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    dropped_ids: Tuple[int, ...] = ()
    timeout_ids: Tuple[int, ...] = ()
    battery_dropped: Tuple[int, ...] = ()
    # train: the integrated clients' columns and the Eq. 18 vector
    # their rows were folded into (None when nobody is integrated).
    integrated: Optional[RoundResult] = None
    aggregated: Optional[np.ndarray] = None
    # record timeline: the delay/energy totals, under the names the
    # timeline event and the history record share.
    totals: Optional[Dict[str, float]] = None
    # evaluate: the test pair stays None in a round without evaluation.
    train_loss: float = 0.0
    test_loss: Optional[float] = None
    test_accuracy: Optional[float] = None


def _check_positions(round_index: int, positions: np.ndarray, size: int) -> None:
    """Refuse a selection that repeats a population position or names
    one outside ``[0, size)``: the device would be trained, uploaded
    and aggregated twice, or a negative index would wrap around."""
    if positions.ndim != 1 or positions.dtype.kind not in "iu":
        raise TrainingError(
            f"selection in round {round_index} is not a 1-D array of "
            f"integer positions (dtype {positions.dtype}, shape {positions.shape})"
        )
    outside = (positions < 0) | (positions >= size)
    if outside.any():
        entry = int(np.flatnonzero(outside)[0])
        raise TrainingError(
            f"selection in round {round_index} names position "
            f"{int(positions[entry])} (entry {entry}), outside the "
            f"{size} devices"
        )
    seen = np.zeros(size, dtype=bool)
    seen[positions] = True
    if np.count_nonzero(seen) != positions.size:
        taken = set()
        for entry, position in enumerate(positions.tolist()):
            if position in taken:
                raise TrainingError(
                    f"selection in round {round_index} repeats position "
                    f"{position} (entry {entry})"
                )
            taken.add(position)


class _Eq18Fold(RowSink):
    """The trainer's row sink: FedAvg (Eq. 18) while the rows are hot.

    Every trained row is compressed when a pipeline is configured —
    discarded clients' too, so every residual advances — and what the
    server receives is added to the sum at once if the client is
    integrated. Rows arrive in selection order, so the bits are those
    of ``fedavg_aggregate`` over the kept rows, weighted by ``|D_q|``.
    ``integrating`` holds the kept clients' positions in ``population``.
    """

    def __init__(self, global_params, population, integrating, compression) -> None:
        super().__init__()
        self._global_params = global_params
        self._ids = population.device_ids
        self._integrated = np.zeros(len(population), dtype=bool)
        self._integrated[integrating] = True
        self._compression = compression
        weights = population.num_samples[integrating].astype(np.float64)
        self._sum = FedAvgAccumulator(weights, global_params.size) if weights.size else None

    def rows(self, start: int, stop: int) -> np.ndarray:
        # Serial training reuses one block buffer for the whole round.
        if self.out is None or len(self.out) < stop - start:
            self.out = np.empty((stop - start, self._global_params.size))
        return self.out[: stop - start]

    def take(self, start: int, rows: np.ndarray) -> None:
        stop = start + len(rows)
        for device_id, row, integrated in zip(
            self._ids[start:stop].tolist(), rows, self._integrated[start:stop].tolist()
        ):
            if self._compression is not None:
                row = self._compression.process(device_id, self._global_params, row).params
            if integrated:
                self._sum.add(row)

    def result(self) -> Optional[np.ndarray]:
        """The new global vector, or ``None`` when nobody is integrated."""
        return self._sum.result() if self._sum is not None else None


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
            each client's update delta is compressed, the pipeline's
            declared payload size drives every upload's delay and
            energy (an upload of another size is refused), and the
            server aggregates the lossy reconstruction. The frequency
            policy still plans with the nominal ``server.payload_bits``.
            Compression state is per-device and updated in selection
            order in the main process, so it is backend-independent.
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
            battery drops, aggregation, evaluation, run stop) and one
            ``round-<j>/<stage>`` span per stage, which time it.
            ``None`` (the default) means tracing off. Observation is
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
        population: ``devices`` as a
            :class:`~repro.devices.DevicePopulation` (the environment's
            snapshot), or ``None`` to snapshot them here. The snapshot
            is fixed at construction: every gain the trainer moves on a
            device (fading, resume) it also writes here, and runs read
            their per-client numbers from it without re-reading the
            devices, so a CPU, radio or dataset changed on a device
            after construction needs a new trainer. Batteries are read
            off the devices at the start of each :meth:`run`.

    Attributes:
        ledger: an :class:`repro.energy.EnergyLedger` accumulating
            per-device energy across the run (reset by :meth:`run`).
        observer: the bound :class:`repro.obs.RunObserver` (a
            discarding one when none was given).
        population: the fleet snapshot every run reads (see above).
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
        population: Optional[DevicePopulation] = None,
    ) -> None:
        if not devices:
            raise TrainingError("cannot train with an empty device population")
        if population is not None and len(population) != len(devices):
            raise ConfigurationError(f"population of {len(population)} for {len(devices)} devices")
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
        if population is None:
            population = DevicePopulation.from_devices(self.devices)
        self.population = population
        self.selection = selection
        self.frequency_policy = frequency_policy or MaxFrequencyPolicy()
        self.config = config or TrainerConfig()
        self.label = label
        self.compression = compression
        self.channel_models = dict(channel_models or {})
        self.backend = backend or SerialBackend()
        self.observer = observer or RunObserver()
        self.ledger = self._new_ledger()
        self.best_model_params = None
        self.best_model_accuracy = 0.0
        self.checkpoint_path = checkpoint_path
        self.last_checkpoint = None

    # ------------------------------------------------------------------
    def _new_ledger(self):
        # Function-local: repro.energy's package init imports repro.fl.
        from repro.energy.accounting import EnergyLedger

        return EnergyLedger()

    def _apply_battery(
        self, active, timeline: RoundTimeline, status_by_id: Dict[int, str]
    ) -> Tuple[int, ...]:
        """Drain batteries; mark devices that cannot pay as dropped.

        Every device pays the energy its timeline entry says it spent —
        including fault-lost devices' partial work. Only devices whose
        update would otherwise have reached the server show up in the
        returned battery-drop tuple (a fault already claimed the rest).
        """
        if not self.config.enforce_battery:
            return ()
        spent = dict(
            zip(
                timeline.device_ids.tolist(),
                (timeline.compute_energy + timeline.upload_energy).tolist(),
            )
        )
        dropped = []
        for device in active:
            battery = device.battery
            if battery is None:
                continue
            paid = battery.drain(spent[device.device_id])
            if not paid and status_by_id[device.device_id] == OUTCOME_OK:
                dropped.append(device.device_id)
        status_by_id.update(dict.fromkeys(dropped, OUTCOME_DROPPED))
        return tuple(dropped)

    def _emit_degradation(self, state: RoundState) -> None:
        """Emit one :class:`ClientDroppedEvent` per lost client, then
        the round's :class:`RoundDegradedEvent` if it fell short."""
        faults = state.faults
        causes = {}
        for device_id in faults.drop_before:
            causes[device_id] = ("dropout", "before_compute")
        for device_id in faults.drop_during:
            causes[device_id] = ("dropout", "compute")
        for device_id in faults.upload_outage:
            causes[device_id] = ("channel_outage", "upload")
        for device_id in state.battery_dropped:
            causes.setdefault(device_id, ("battery", "round"))
        for device_id in faults.battery_death:
            causes.setdefault(device_id, ("battery_death", "round"))
        lost = [
            (device_id, *causes.get(device_id, ("dropout", "round")))
            for device_id in state.dropped_ids
        ]
        if state.timeout_ids:
            # Past its compute: the user waited for or held the channel.
            timeline = state.timeline
            uploading = set(
                timeline.device_ids[
                    (timeline.slack > 0.0) | (timeline.upload_delay > 0.0)
                ].tolist()
            )
            for device_id in state.timeout_ids:
                phase = "upload" if device_id in uploading else "compute"
                lost.append((device_id, "round_deadline", phase))
        for device_id, cause, phase in lost:
            self.observer.emit(
                ClientDroppedEvent(
                    round_index=state.round_index,
                    device_id=device_id,
                    cause=cause,
                    phase=phase,
                )
            )
        if (
            lost
            or state.reassigned
            or len(state.integrating) < state.target_count
        ):
            self.observer.emit(
                RoundDegradedEvent(
                    round_index=state.round_index,
                    planned=len(state.selected_ids),
                    aggregated=len(state.integrating),
                    dropped_ids=state.dropped_ids,
                    timeout_ids=state.timeout_ids,
                    reassigned_frequencies=state.reassigned,
                )
            )

    def _capture_checkpoint(self, run: RunState) -> TrainerCheckpoint:
        """Freeze every piece of cross-round state after ``run.round_index``."""
        population = self.population
        charges = None
        if run.batteries:
            charges = np.full(len(population), np.nan)
            positions, batteries = zip(*run.batteries)
            charges[list(positions)] = [battery.charge_joules for battery in batteries]
        return TrainerCheckpoint(
            round_index=run.round_index,
            label=self.label,
            strategy_class=type(self.selection).__name__,
            model_params=self.server.broadcast(),
            cumulative_time=run.cumulative_time,
            cumulative_energy=run.cumulative_energy,
            ledger=self.ledger.column_state(),
            device_ids=population.device_ids.copy(),
            channel_gains=population.channel_gain.copy(),
            battery_charges=charges,
            selection_state=self.selection.state_dict(),
            plateau=(
                run.plateau.state_dict() if run.plateau is not None else None
            ),
            best_model_params=self.best_model_params,
            best_model_accuracy=self.best_model_accuracy,
            records=tuple(run.history.records),
        )

    def _apply_checkpoint(self, checkpoint, run: RunState) -> None:
        """Restore a checkpoint into this trainer and into ``run``.

        Called by :meth:`run` after ``selection.reset()`` and the
        ledger rebuild; restored gains go to the devices and to the
        population alike.
        """
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
        self.ledger.load_column_state(checkpoint.ledger)
        ids = checkpoint.device_ids.tolist()
        charges = (
            [math.nan] * len(ids)
            if checkpoint.battery_charges is None
            else checkpoint.battery_charges.tolist()
        )
        moved: Dict[int, float] = {}  # position -> restored gain
        # NaN (which differs from itself) marks a value not captured.
        for device_id, gain, charge in zip(
            ids, checkpoint.channel_gains.tolist(), charges
        ):
            position = self._position(device_id)
            if position is None:
                continue
            device = self.devices[position]
            if gain == gain and gain != device.radio.channel_gain:
                moved[position] = gain
            if charge == charge and device.battery is not None:
                device.battery.charge_joules = charge
        # The population validates every gain before a radio moves.
        self.population.set_channel_gains(list(moved), list(moved.values()))
        for position, gain in moved.items():
            self.devices[position].radio.channel_gain = gain
        if run.plateau is not None and checkpoint.plateau is not None:
            run.plateau.load_state_dict(checkpoint.plateau)
        self.best_model_params = (
            checkpoint.best_model_params.copy()
            if checkpoint.best_model_params is not None
            else None
        )
        self.best_model_accuracy = checkpoint.best_model_accuracy
        run.history = TrainingHistory(
            label=checkpoint.label, records=list(checkpoint.history)
        )
        run.cumulative_time = checkpoint.cumulative_time
        run.cumulative_energy = checkpoint.cumulative_energy
        run.round_index = checkpoint.round_index

    # -- the run ---------------------------------------------------------
    def run(self, resume_from=None) -> TrainingHistory:
        """Execute the full training loop and return its history.

        Each round takes its stop decision (deadline, then target
        accuracy, then plateau) before its checkpoint is written, so a
        round-``r`` checkpoint is the complete state after round ``r``.

        Args:
            resume_from: an optional
                :class:`~repro.fl.checkpoint.TrainerCheckpoint` to
                restore before training; the loop then continues from
                ``resume_from.round_index + 1`` and the returned
                history (and every artifact derived from it) is
                bitwise identical to an uninterrupted run's.
        """
        observer = self.observer
        run = self._begin_run(resume_from)
        try:
            # A resumed attempt continues a run whose first attempt
            # already wrote the run span's start, so it only emits the
            # close — the finished trace carries exactly one pair.
            with observer.span(
                "run",
                parent_id=observer.parent_span_id,
                resources=True,
                emit_start=resume_from is None,
            ):
                for round_index in range(
                    run.round_index + 1, self.config.rounds + 1
                ):
                    run.round_index = round_index
                    with observer.span(
                        "round",
                        span_id=round_span_id(round_index),
                        parent_id="run",
                        round_index=round_index,
                    ):
                        state = RoundState(run, round_index)
                        self._refresh_channels(state)
                        self._select(state)
                        self._assign(state, "frequency_assignment")
                        self._inject_faults(state)
                        self._simulate(state)
                        self._settle(state)
                        self._train(state)
                        self._aggregate(state)
                        self._record_timeline(state)
                        self._evaluate(state)
                        self._record_history(state)
                        stop = self._should_stop(state)
                        self._checkpoint(state)
                    if stop:
                        break
        except Exception:
            # Both spans are closed by now: a crashed chaos run's JSONL
            # still pairs every span and ends with a typed run_stop
            # instead of cutting off mid-round.
            self._emit_run_stop(run, StopReason.ERROR)
            raise
        self.last_checkpoint = self._capture_checkpoint(run)
        run.history.stop_reason = run.stop_reason.value
        self._emit_run_stop(run, run.stop_reason)
        _LOGGER.info(
            "run %r stopped after %d rounds: %s (%.2fs simulated, %.2fJ)",
            self.label,
            run.round_index,
            run.stop_reason.value,
            run.cumulative_time,
            run.cumulative_energy,
        )
        return run.history

    def _begin_run(self, resume_from) -> RunState:
        """Reset the trainer, restore ``resume_from``, bind the backend."""
        config = self.config
        self.selection.reset()
        if self.compression is not None:
            self.compression.reset()
        plateau = None
        if config.convergence_patience is not None:
            # Function-local: repro.analysis imports repro.fl.
            from repro.analysis.convergence import PlateauDetector

            plateau = PlateauDetector(
                patience=config.convergence_patience,
                min_delta=config.convergence_min_delta,
                mode="min",
            )
        self.ledger = self._new_ledger()
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
        # An empty plan resolves every round to the empty RoundFaults,
        # so no injector, an empty plan and a plan that happens not to
        # fire all run the same code and stay bitwise identical.
        run = RunState(
            history=TrainingHistory(label=self.label),
            plateau=plateau,
            injector=self.fault_injector or FaultInjector(FaultPlan()),
            batteries=[
                (position, d.battery)
                for position, d in enumerate(self.devices)
                if d.battery is not None
            ],
        )
        if resume_from is not None:
            self._apply_checkpoint(resume_from, run)
            _LOGGER.info(
                "run %r resuming from checkpointed round %d",
                self.label,
                resume_from.round_index,
            )
        self.backend.observer = self.observer
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
        return run

    def _emit_run_stop(self, run: RunState, reason: StopReason) -> None:
        self.observer.emit(
            RunStopEvent(
                round_index=run.round_index,
                reason=reason.value,
                cumulative_time=run.cumulative_time,
                cumulative_energy=run.cumulative_energy,
                label=self.label,
            )
        )

    def _should_stop(self, state: RoundState) -> bool:
        """The stop decision, taken before the round's checkpoint."""
        config = self.config
        run = state.run
        if (
            config.deadline_s is not None
            and run.cumulative_time >= config.deadline_s
        ):
            run.stop_reason = StopReason.DEADLINE
        elif (
            config.target_accuracy is not None
            and state.test_accuracy is not None
            and state.test_accuracy >= config.target_accuracy
        ):
            run.stop_reason = StopReason.TARGET_ACCURACY
        elif (
            run.plateau is not None
            and state.test_loss is not None
            and run.plateau.update(state.test_loss)
        ):
            run.stop_reason = StopReason.PLATEAU
        else:
            return False
        return True

    # -- one round: the stages, in execution order -----------------------
    def _stage(self, state: RoundState, name: str):
        """The ``with`` target of one stage: its ``round-<j>/<name>`` span."""
        return self.observer.span(
            name,
            span_id=round_span_id(state.round_index, name),
            parent_id=round_span_id(state.round_index),
            round_index=state.round_index,
        )

    def _position(self, device_id: int) -> Optional[int]:
        """``device_id``'s position in the fleet, or ``None``."""
        try:
            return self.population.position_of(device_id)
        except DeviceError:
            return None

    def _refresh_channels(self, state: RoundState) -> None:
        """Per-round fading: re-draw mapped devices' channel gains
        before selection so the FLCC plans with current info."""
        for device_id, model in self.channel_models.items():
            position = self._position(device_id)
            if position is not None:
                gain = float(model.sample_gain())
                self.population.set_channel_gains((position,), (gain,))
                self.devices[position].radio.channel_gain = gain

    def _select(self, state: RoundState) -> None:
        """``Gamma_j`` (plus over-selected extras) and its population slice."""
        round_index = state.round_index
        population = self.population
        margin = self.config.over_select_margin
        with self._stage(state, "selection"):
            positions = self.selection.select_population(
                round_index, population
            )
        if positions.size == 0:
            raise TrainingError(
                f"selection produced no users in round {round_index}"
            )
        _check_positions(round_index, positions, len(population))
        state.target_count = len(positions)
        if margin > 0:
            extra_positions = over_selection_extras_population(
                population,
                positions,
                margin,
                self.server.payload_bits,
                self.config.bandwidth_hz,
            )
            positions = np.concatenate((positions, extra_positions))
        # Until a fault says otherwise, everyone selected computes.
        state.active = [self.devices[p] for p in positions.tolist()]
        state.positions = positions
        state.active_population = population.take(positions)
        state.selected_ids = tuple(state.active_population.device_ids.tolist())
        self.observer.emit(
            SelectionEvent(
                round_index=round_index, selected_ids=state.selected_ids
            )
        )

    def _assign(self, state: RoundState, stage: str) -> None:
        """Schedule the active devices under ``stage``'s span."""
        with self._stage(state, stage):
            state.frequencies = self.frequency_policy.assign(
                state.active,
                self.server.payload_bits,
                self.config.bandwidth_hz,
                round_index=state.round_index,
                population=state.active_population,
            )
        self.observer.emit(
            FrequencyAssignmentEvent(
                round_index=state.round_index,
                frequencies=dict(state.frequencies),
            )
        )

    def _inject_faults(self, state: RoundState) -> None:
        """Resolve the round's faults; re-schedule around early drops."""
        observer = self.observer
        faults = state.faults = state.run.injector.plan_round(
            state.round_index, state.selected_ids
        )
        if faults:
            for injected in faults.injected:
                observer.emit(
                    FaultInjectedEvent(
                        round_index=state.round_index,
                        device_id=injected.device_id,
                        fault=injected.fault,
                        detail=injected.detail,
                        magnitude=injected.magnitude,
                    )
                )
        if not faults.drop_before:
            return
        keep = [device_id not in faults.drop_before for device_id in state.selected_ids]
        state.active = [d for d, kept in zip(state.active, keep) if kept]
        if state.active:
            # Algorithm 3's slack chain planned around the dropped
            # devices' uploads: recompute the schedule over the
            # survivors' population slice so successors do not idle at
            # stale frequencies.
            state.active_population = self.population.take(state.positions[keep])
            self._assign(state, "frequency_reassignment")
            state.reassigned = True

    def _simulate(self, state: RoundState) -> None:
        """The round's TDMA timeline (Eqs. 4–11): its inputs — cost
        model, fault masks, declared payload sizes — hold no trained
        value, so it is known before any gradient is computed."""
        if not state.active:
            # Every selected device dropped before computing: the round
            # happens but costs nothing and changes nothing.
            state.timeline = RoundTimeline()
            return
        faults = state.faults
        payloads = None
        if self.compression is not None:
            bits = self.compression.payload_bits(self.server.model.parameter_count)
            payloads = {d.device_id: bits for d in state.active}
        state.timeline = simulate_tdma_round(
            state.active,
            self.server.payload_bits,
            self.config.bandwidth_hz,
            state.frequencies,
            payloads=payloads,
            population=state.active_population,
            compute_scale=faults.compute_scale,
            drop_during=faults.drop_during,
            upload_outage=faults.upload_outage,
            upload_scale=faults.upload_scale,
            round_deadline=self.config.round_deadline_s,
        )

    def _settle(self, state: RoundState) -> None:
        """Batteries, each client's final status and the integrated set,
        all read off the timeline before anything is trained."""
        faults = state.faults
        status_by_id = state.timeline.outcomes()
        state.battery_dropped = self._apply_battery(
            state.active, state.timeline, status_by_id
        )
        # The battery empties at the round's end, killing the device's
        # contribution whatever else happened.
        for device_id in faults.battery_death:
            device = self.devices[self.population.position_of(device_id)]
            if device.battery is not None:
                device.battery.kill()
            if device_id in status_by_id:
                status_by_id[device_id] = OUTCOME_DROPPED
        active_ids = state.active_population.device_ids.tolist() if state.active else []
        ok = np.flatnonzero([status_by_id[i] == OUTCOME_OK for i in active_ids])
        integrating = ok[: state.target_count]  # over-selection keeps the first N
        status_by_id.update(dict.fromkeys(faults.drop_before, OUTCOME_DROPPED))

        def selected_with(status: str) -> Tuple[int, ...]:
            return tuple(
                device_id
                for device_id in state.selected_ids
                if status_by_id.get(device_id) == status
            )

        state.integrating = integrating
        state.dropped_ids = selected_with(OUTCOME_DROPPED)
        state.timeout_ids = selected_with(OUTCOME_TIMEOUT)

    def _train(self, state: RoundState) -> None:
        """Local updates through the backend, each trained block folded
        into Eq. 18 (see :class:`_Eq18Fold`) as soon as it is done."""
        if not state.active:
            state.integrated = RoundResult(state.round_index)
            return
        global_params = self.server.broadcast()
        active = state.active_population
        fold = _Eq18Fold(global_params, active, state.integrating, self.compression)
        with self._stage(state, "local_updates"):
            trained = self.backend.run_round(
                state.round_index,
                global_params,
                state.active,
                self.config.learning_rate,
                sink=fold,
                population=active,
            )
        columns = (trained.device_ids, trained.weights, trained.losses)
        state.integrated = RoundResult(state.round_index, *(c[state.integrating] for c in columns))
        state.aggregated = fold.result()

    def _aggregate(self, state: RoundState) -> None:
        """Settle's events, the ledger, strategy feedback, and installing
        the Eq. 18 vector."""
        if state.battery_dropped:
            self.observer.emit(
                BatteryDropEvent(
                    round_index=state.round_index,
                    dropped_ids=state.battery_dropped,
                )
            )
        # Rounds can degrade only under a fault plan or a round deadline;
        # without either the trace carries no degradation events at all.
        if (
            self.config.round_deadline_s is not None
            or not state.run.injector.plan.is_empty
        ):
            self._emit_degradation(state)
        integrated = state.integrated
        # Feedback hook for statistical-utility strategies (e.g. the
        # Oort extension): report the observed losses of the clients
        # the server actually integrated — updates it never saw must
        # not shape future selection.
        self.selection.observe_losses(
            dict(zip(integrated.device_ids.tolist(), integrated.losses.tolist()))
        )
        self.ledger.record_round(state.timeline)
        if integrated:
            with self._stage(state, "aggregation"):
                self.server.model.set_flat_params(state.aggregated)
        self.observer.emit(
            AggregationEvent(
                round_index=state.round_index,
                num_updates=len(integrated),
                # |D_q| weights are integers: every order sums them exactly.
                total_weight=float(integrated.weights.sum()),
            )
        )

    def _record_timeline(self, state: RoundState) -> None:
        """Advance the simulated clock; emit the round's timeline (its
        per-device lines as one column batch)."""
        observer = self.observer
        run = state.run
        timeline = state.timeline
        round_index = state.round_index
        run.cumulative_time += timeline.round_delay
        run.cumulative_energy += timeline.total_energy
        ids = timeline.device_ids.tolist()
        columns = dict(
            device_id=ids,
            frequency=timeline.frequency,
            f_max=state.active_population.f_max[timeline.order],
            compute_delay=timeline.compute_delay,
            upload_delay=timeline.upload_delay,
            slack=timeline.slack,
            compute_energy=timeline.compute_energy,
            upload_energy=timeline.upload_energy,
            outcome=list(
                map(CLIENT_OUTCOMES.__getitem__, timeline.outcome_codes.tolist())
            ),
        )
        observer.emit_batch(len(ids), ((DeviceRoundEvent, {"round_index": round_index}, columns),))
        state.totals = dict(
            round_delay=timeline.round_delay,
            round_energy=timeline.total_energy,
            compute_energy=timeline.total_compute_energy,
            upload_energy=timeline.total_upload_energy,
            slack=timeline.total_slack,
            cumulative_time=run.cumulative_time,
            cumulative_energy=run.cumulative_energy,
        )
        observer.emit(TimelineEvent(round_index=round_index, **state.totals))

    def _evaluate(self, state: RoundState) -> None:
        """Train loss over the integrated updates; test-set evaluation."""
        config = self.config
        round_index = state.round_index
        integrated = state.integrated
        # Train loss is weighted over the updates the server actually
        # integrated: dropped clients may have trained, but their
        # contribution never reached the global model.
        total_weight = float(integrated.weights.sum())
        if total_weight:
            state.train_loss = (
                sequential_sum(integrated.losses * integrated.weights)
                / total_weight
            )
        should_eval = (
            round_index % config.eval_every == 0
            or round_index == config.rounds
        )
        if not should_eval or self.server.test_dataset is None:
            return
        with self._stage(state, "eval"):
            state.test_loss, state.test_accuracy = self.server.evaluate()
        self.observer.emit(
            EvalEvent(
                round_index=round_index,
                test_loss=state.test_loss,
                test_accuracy=state.test_accuracy,
            )
        )
        if config.keep_best_model and (
            self.best_model_params is None
            or state.test_accuracy > self.best_model_accuracy
        ):
            self.best_model_params = self.server.broadcast()
            self.best_model_accuracy = state.test_accuracy

    def _record_history(self, state: RoundState) -> None:
        """Append the round's :class:`RoundRecord`."""
        timeline = state.timeline
        state.run.history.append(
            RoundRecord(
                round_index=state.round_index,
                selected_ids=state.selected_ids,
                frequencies=dict(state.frequencies),
                train_loss=state.train_loss,
                test_accuracy=state.test_accuracy,
                test_loss=state.test_loss,
                dropped_ids=state.dropped_ids,
                timeout_ids=state.timeout_ids,
                **state.totals,
            )
        )
        _LOGGER.debug(
            "round %d: %d selected, %d dropped, %d timed out, "
            "delay %.4fs, energy %.4fJ, train_loss %.5f",
            state.round_index,
            len(state.selected_ids),
            len(state.dropped_ids),
            len(state.timeout_ids),
            timeline.round_delay,
            timeline.total_energy,
            state.train_loss,
        )

    def _checkpoint(self, state: RoundState) -> None:
        """Write the on-disk snapshot when the cadence says so."""
        every = self.config.checkpoint_every
        # The span opens every round, whether or not the cadence writes
        # a checkpoint: span structure must stay a pure function of the
        # simulated run, and checkpoint cadence is explicitly allowed
        # to vary between a killed run and its resumed retry.
        with self._stage(state, "checkpoint"):
            if (
                every is not None
                and self.checkpoint_path is not None
                and state.round_index % every == 0
            ):
                save_checkpoint(
                    self.checkpoint_path,
                    self._capture_checkpoint(state.run),
                    state.run.history_log,
                )
