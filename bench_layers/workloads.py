"""The six workloads and the code that runs one repeat of each.

Every workload runs strategy ``helcfl`` in a closed loop, one run at a
time, on inputs generated from ``--seed``. A *case* binds a workload to
a seed and exposes the three things the harness needs: ``build`` (the
cold set-up that ``setup_s`` times), ``run`` (one repeat, the timed
call) and ``checks`` (the correctness operations counted in
``failed``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.frequency import determine_frequencies_population
from repro.core.selection import GreedyDecaySelection
from repro.devices.fleet import FleetSpec
from repro.devices.population import DevicePopulation
from repro.energy.accounting import EnergyLedger
from repro.errors import SerializationError
from repro.experiments.runner import build_environment, build_trainer
from repro.experiments.settings import ExperimentSettings
from repro.fl.checkpoint import load_checkpoint, save_checkpoint
from repro.fl.execution import create_backend
from repro.network.tdma import simulate_tdma_round
from repro.obs import RunObserver
from repro.obs.schema import validate_trace

from bench_layers.spans import SpanRecorder, instrument

__all__ = [
    "Workload",
    "WORKLOADS",
    "Outcome",
    "Check",
    "Capture",
    "instrument_trainer",
    "TrainingCase",
    "ScheduleCase",
    "make_case",
]

# Simulated quantities are sums of the same terms in a different order
# (ledger vs history) or differ by one rounding of cycles / f (DVFS twin),
# so they are compared to this relative tolerance, not bit for bit.
SIM_REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One named set of inputs.

    Attributes:
        name: as in ``BENCHMARK.json``.
        why: one line on why it exists.
        rounds: FL rounds in one repeat, sized so a repeat takes
            0.3-0.5 s on the reference sandbox and a 10 s run holds
            20 or more repeats.
        overrides: ``ExperimentSettings`` fields that differ from the
            defaults (empty for ``sched_q100k``, which trains nothing).
        iid: partition regime.
        backend / workers: execution backend passed by name, so every
            repeat pays pool start-up as ``repro run --backend`` does.
        durable: full tracing to a JSONL file plus a checkpoint every
            round — the campaign defaults.
        trains: False for the cost-model-only schedule loop.
    """

    name: str
    why: str
    rounds: int
    overrides: Dict = field(default_factory=dict)
    iid: bool = True
    backend: Optional[str] = None
    workers: Optional[int] = None
    durable: bool = False
    trains: bool = True


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "mlp_q100",
        "Default Q=100 N=10 MLP run behind every figure: per-round Python "
        "overhead, evaluation and trainer glue matter here and nowhere else",
        rounds=50,
    ),
    Workload(
        "sqz_q100",
        "Mini-SqueezeNet on non-IID shards, the paper's model: conv, im2col, "
        "pooling and evaluation are ~95% of the run; a scheduler change must "
        "not show here",
        rounds=2,
        overrides={"model": "squeezenet"},
        iid=False,
    ),
    Workload(
        "mlp_q10k",
        "Q=10^4 N=1000 with 10 samples per client: per-client dispatch, "
        "aggregation over 1000 vectors and a 550 MiB set-up dominate; where "
        "a batched client kernel should gain most",
        rounds=1,
        overrides={"num_users": 10_000, "train_size": 100_000},
    ),
    Workload(
        "mlp_q10k_durable",
        "mlp_q10k with full JSONL tracing and a checkpoint every round: the "
        "only workload where the trace sink and checkpoint cost show; its "
        "history must equal mlp_q10k's",
        rounds=1,
        overrides={"num_users": 10_000, "train_size": 100_000},
        durable=True,
    ),
    Workload(
        "mlp_q1k_pool",
        "Q=1000 N=100 through process+shm with 2 workers, pool started per "
        "run: guards shm transport and spawn cost; the round waits for the "
        "slower worker",
        rounds=8,
        overrides={"num_users": 1000, "train_size": 40_000},
        backend="process+shm",
        workers=2,
    ),
    Workload(
        "sched_q100k",
        "No training, Q=10^5 N=10^4: selection, DVFS, TDMA and ledger only, "
        "as cost-model studies use them; the only place a scheduler or TDMA "
        "change can show",
        rounds=4,
        trains=False,
    ),
)


class Outcome(NamedTuple):
    """What one repeat produced; the same on every repeat of a case."""

    digest: str
    sim_delay_s: float
    sim_energy_j: float
    final_accuracy: Optional[float]
    rounds: int
    clients: int


class Check(NamedTuple):
    """One correctness operation."""

    name: str
    ok: bool
    detail: str = ""


def _close(left: float, right: float) -> bool:
    return math.isclose(left, right, rel_tol=SIM_REL_TOL, abs_tol=0.0)


def _twin_checks(reference: Outcome, twin: Outcome) -> List[Check]:
    """Paper invariants against the max-frequency twin (Algorithm 3)."""
    saving = 1.0 - reference.sim_energy_j / twin.sim_energy_j
    return [
        Check(
            "twin_delay",
            _close(reference.sim_delay_s, twin.sim_delay_s),
            f"helcfl {reference.sim_delay_s!r} vs nodvfs {twin.sim_delay_s!r}",
        ),
        Check("dvfs_saving_nonneg", saving >= 0.0, f"saving {saving!r}"),
    ]


def _direct(_name: str, function: Callable, *args, **kwargs):
    """Untraced stand-in for ``SpanRecorder.call``."""
    return function(*args, **kwargs)


class Capture:
    """What the instrumented trainer saw each round, kept for replay.

    Attributes:
        positions: ``select_population``'s result per round.
        assignments: ``(selected, population, frequencies)`` per
            ``frequency_policy.assign`` call.
        payload_bits / bandwidth_hz: as passed to ``assign``.
        clients: client updates the backend returned.
        failed_clients: of those, updates whose loss is not finite.
    """

    def __init__(self) -> None:
        self.positions: List[np.ndarray] = []
        self.assignments: List[tuple] = []
        self.payload_bits = 0.0
        self.bandwidth_hz = 0.0
        self.clients = 0
        self.failed_clients = 0

    def saw_assignment(self, args: tuple, kwargs: dict, result) -> None:
        selected, self.payload_bits, self.bandwidth_hz = args[:3]
        self.assignments.append((selected, kwargs.get("population"), result))

    def saw_updates(self, _args: tuple, _kwargs: dict, result) -> None:
        self.clients += len(result)
        self.failed_clients += sum(
            1 for update in result if not math.isfinite(update.loss)
        )


def instrument_trainer(trainer, recorder: SpanRecorder, capture: Capture) -> None:
    """Record a span around each stage the trainer reaches through a
    public attribute: ``selection``, ``frequency_policy``, ``backend``,
    ``server`` and, when tracing to a file, the observer's ``sink``.

    The trainer has no round hook, so a round span runs from one
    ``select_population`` call to the next (or to the end of the run);
    everything the loop does in between that is not one of the stages
    above — TDMA, ledger, events, checkpoint — is that span's self time.
    """
    open_round: List[int] = []

    def roll_round() -> None:
        if open_round:
            recorder.close(open_round.pop())
        open_round.append(recorder.open("fl.trainer.round"))

    instrument(
        trainer.selection,
        "select_population",
        recorder,
        "core.selection",
        before=roll_round,
        after=lambda _a, _k, result: capture.positions.append(result),
    )
    instrument(
        trainer.frequency_policy,
        "assign",
        recorder,
        "core.frequency",
        after=capture.saw_assignment,
    )
    instrument(trainer.backend, "bind", recorder, "fl.execution.bind")
    instrument(
        trainer.backend,
        "run_round",
        recorder,
        "fl.execution.run_round",
        after=capture.saw_updates,
    )
    instrument(trainer.server, "aggregate", recorder, "fl.server.aggregate")
    instrument(trainer.server, "evaluate", recorder, "fl.server.evaluate")
    if trainer.observer.tracing:
        instrument(trainer.observer.sink, "emit", recorder, "obs.sinks.emit")


class TrainingCase:
    """A workload that trains through ``FederatedTrainer``."""

    def __init__(self, workload: Workload, seed: int, scratch_dir: str) -> None:
        self.workload = workload
        self.settings = ExperimentSettings(
            seed=seed, rounds=workload.rounds, **workload.overrides
        )
        self.clients_per_round = self.settings.selected_per_round
        self.trace_path = os.path.join(scratch_dir, f"{workload.name}.trace.jsonl")
        self.checkpoint_path = os.path.join(
            scratch_dir, f"{workload.name}.checkpoint.json"
        )

    # -- set-up ---------------------------------------------------------
    def build(self):
        """Cold set-up: data, partitions, fleet, and one trainer."""
        env = build_environment(self.settings, self.workload.iid)
        build_trainer("helcfl", self.settings, env)
        return env

    # -- one repeat -----------------------------------------------------
    def run(
        self,
        env,
        strategy: str = "helcfl",
        plain: bool = False,
        recorder: Optional[SpanRecorder] = None,
        capture: Optional[Capture] = None,
    ):
        """One full run, the way ``repro run`` performs it.

        The body of ``repro.experiments.runner.run_strategy`` — backend
        by name, ``build_trainer``, ``trainer.run()``, close — plus the
        ``checkpoint_path`` that ``run_strategy`` cannot pass on.

        Args:
            env: the environment ``build`` returned.
            strategy: ``helcfl`` or its ``helcfl-nodvfs`` twin.
            plain: serial, no trace, no checkpoint, whatever the
                workload says (the reference the pool and durable
                workloads must reproduce).
            recorder: traced pass only — record a span around every
                call made here and around the trainer's stages.
            capture: traced pass only — collects per-round inputs.

        Returns:
            ``(trainer, history)``.
        """
        workload = self.workload
        call = recorder.call if recorder is not None else _direct
        durable = workload.durable and not plain
        backend = None
        if workload.backend is not None and not plain:
            backend = call(
                "fl.execution.create",
                create_backend,
                workload.backend,
                workers=workload.workers,
            )
        observer = RunObserver.to_path(self.trace_path) if durable else None
        try:
            trainer = call(
                "experiments.runner.build_trainer",
                build_trainer,
                strategy,
                self.settings,
                env,
                config_overrides={"checkpoint_every": 1} if durable else None,
                backend=backend,
                observer=observer,
                checkpoint_path=self.checkpoint_path if durable else None,
            )
            if recorder is not None:
                instrument_trainer(trainer, recorder, capture)
            history = call("fl.trainer.run", trainer.run)
        finally:
            if observer is not None:
                call("obs.sinks.close", observer.close)
            if backend is not None:
                call("fl.execution.close", backend.close)
        return trainer, history

    @staticmethod
    def outcome(history) -> Outcome:
        canonical = json.dumps(
            history.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return Outcome(
            digest=hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            sim_delay_s=history.total_time,
            sim_energy_j=history.total_energy,
            final_accuracy=history.final_accuracy,
            rounds=len(history),
            clients=sum(len(record.selected_ids) for record in history.records),
        )

    # -- correctness ----------------------------------------------------
    def checks(self, env, reference: Outcome) -> Tuple[List[Check], Outcome]:
        """Correctness operations beyond per-repeat digest equality.

        Returns the checks and the ``helcfl-nodvfs`` twin's outcome.
        """
        checks: List[Check] = []
        trainer, history = self.run(env, plain=True)
        plain = self.outcome(history)
        # For the pool workload this is "equals a serial run"; for the
        # durable one, "equals mlp_q10k" (same settings, nothing durable).
        checks.append(
            Check(
                "reference_digest",
                plain.digest == reference.digest,
                f"plain serial {plain.digest[:12]} vs workload {reference.digest[:12]}",
            )
        )
        ledger_total = trainer.ledger.total_joules
        checks.append(
            Check(
                "ledger_total",
                _close(ledger_total, history.total_energy),
                f"ledger {ledger_total!r} vs history {history.total_energy!r}",
            )
        )
        limits = {d.device_id: (d.cpu.f_min, d.cpu.f_max) for d in env.devices}
        outside = [
            (record.round_index, device_id, freq)
            for record in history.records
            for device_id, freq in record.frequencies.items()
            if not limits[device_id][0] <= freq <= limits[device_id][1]
        ]
        checks.append(Check("frequency_range", not outside, f"{outside[:3]}"))

        _, twin_history = self.run(env, strategy="helcfl-nodvfs", plain=True)
        twin = self.outcome(twin_history)
        checks.extend(_twin_checks(reference, twin))

        save_checkpoint(self.checkpoint_path + ".roundtrip", trainer.last_checkpoint)
        loaded = load_checkpoint(self.checkpoint_path + ".roundtrip")
        checks.append(
            Check(
                "checkpoint_roundtrip",
                loaded.to_state() == trainer.last_checkpoint.to_state(),
            )
        )
        if self.workload.durable:
            try:
                events = validate_trace(self.trace_path)
                checks.append(Check("trace_valid", events > 0, f"{events} events"))
            except (OSError, SerializationError) as exc:
                checks.append(Check("trace_valid", False, repr(exc)))
            written = load_checkpoint(self.checkpoint_path)
            checks.append(
                Check(
                    "checkpoint_written",
                    written.round_index == self.workload.rounds,
                    f"round {written.round_index}",
                )
            )
        return checks, twin


class ScheduleCase:
    """``sched_q100k``: the cost model alone, no training."""

    num_users = 100_000
    fraction = 0.1
    decay = 0.9
    payload_bits = 5e6
    bandwidth_hz = 2e6
    # Heterogeneous gains take from_spec's interleaved-draw path and give
    # every device its own upload delay, at magnitudes (0.3-0.9 s per
    # upload) where DVFS slack, and so dvfs_saving_frac, is not zero.
    fleet_spec = FleetSpec(channel_gain_range=(0.5, 2.0))

    def __init__(self, workload: Workload, seed: int, scratch_dir: str) -> None:
        del scratch_dir  # nothing is written
        self.workload = workload
        self.seed = seed
        self.clients_per_round = int(self.num_users * self.fraction)

    def build(self) -> DevicePopulation:
        sizes = np.random.default_rng(self.seed).integers(
            20, 200, size=self.num_users
        )
        return DevicePopulation.from_spec(self.fleet_spec, sizes, seed=self.seed + 1)

    def run(
        self,
        population: DevicePopulation,
        strategy: str = "helcfl",
        recorder: Optional[SpanRecorder] = None,
    ):
        """The schedule loop; returns ``(ledger, rounds)``.

        ``rounds`` holds ``(positions, frequencies, timeline)`` per
        round; ``frequencies`` is ``None`` for the max-frequency twin.
        """
        call = recorder.call if recorder is not None else _direct
        dvfs = strategy == "helcfl"
        selection = GreedyDecaySelection(
            self.fraction, self.decay, self.payload_bits, self.bandwidth_hz
        )
        ledger = EnergyLedger()
        rounds = []
        for round_index in range(1, self.workload.rounds + 1):
            positions = call(
                "core.selection", selection.select_population, round_index, population
            )
            selected = call("devices.population.take", population.take, positions)
            assigned = frequencies = None
            if dvfs:
                assigned = call(
                    "core.frequency",
                    determine_frequencies_population,
                    selected,
                    self.payload_bits,
                    self.bandwidth_hz,
                )
                frequencies = dict(
                    zip(selected.device_ids.tolist(), assigned.tolist())
                )
            timeline = call(
                "network.tdma",
                simulate_tdma_round,
                (),
                self.payload_bits,
                self.bandwidth_hz,
                frequencies,
                population=selected,
            )
            call("energy.accounting", ledger.record_round, timeline)
            rounds.append((positions, assigned, timeline))
        return ledger, rounds

    def outcome(self, rounds) -> Outcome:
        digest = hashlib.sha256()
        for positions, assigned, timeline in rounds:
            digest.update(positions.tobytes())
            if assigned is not None:
                digest.update(assigned.tobytes())
            digest.update(
                repr((timeline.round_delay, timeline.total_energy)).encode("ascii")
            )
        return Outcome(
            digest=digest.hexdigest(),
            sim_delay_s=sum(t.round_delay for _, _, t in rounds),
            sim_energy_j=sum(t.total_energy for _, _, t in rounds),
            final_accuracy=None,
            rounds=len(rounds),
            clients=sum(len(positions) for positions, _, _ in rounds),
        )

    def checks(self, population, reference: Outcome) -> Tuple[List[Check], Outcome]:
        checks: List[Check] = []
        ledger, rounds = self.run(population)
        again = self.outcome(rounds)
        checks.append(
            Check(
                "reference_digest",
                again.digest == reference.digest,
                f"{again.digest[:12]} vs {reference.digest[:12]}",
            )
        )
        checks.append(
            Check(
                "ledger_total",
                _close(ledger.total_joules, again.sim_energy_j),
                f"ledger {ledger.total_joules!r} vs rounds {again.sim_energy_j!r}",
            )
        )
        inside = all(
            bool(
                np.all(assigned >= population.f_min[positions])
                and np.all(assigned <= population.f_max[positions])
            )
            for positions, assigned, _ in rounds
        )
        checks.append(Check("frequency_range", inside))
        _, twin_rounds = self.run(population, strategy="helcfl-nodvfs")
        twin = self.outcome(twin_rounds)
        checks.extend(_twin_checks(reference, twin))
        return checks, twin


def make_case(name: str, seed: int, scratch_dir: str):
    """The case for workload ``name``."""
    for workload in WORKLOADS:
        if workload.name == name:
            kind = TrainingCase if workload.trains else ScheduleCase
            return kind(workload, seed, scratch_dir)
    raise KeyError(name)
