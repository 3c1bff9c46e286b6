"""Per-round and per-device analytics derived purely from a trace.

Everything here is a deterministic function of the event stream — no
wall clock, no RNG, no device objects — so the same trace always
yields the same :class:`RunStats`, byte for byte, whichever backend
produced it.

The paper-grounded derivations:

* **DVFS attribution (Eq. 5).** Compute energy scales as ``f^2``, so a
  traced per-device compute energy at frequency ``f`` recomputes to
  the all-``f_max`` counterfactual as ``E * (f_max / f)^2``. The gap
  between the counterfactual and the traced energy is exactly the
  saving HELCFL's Algorithm 3 extracted from slack.
* **Slack utilization (Eqs. 9–10).** Replaying the round's FIFO TDMA
  queue with compute delays rescaled to ``f_max`` (Eq. 4 scales delay
  by ``1/f``) yields the idle wait a max-frequency schedule would have
  had; the fraction of it the traced schedule consumed is the slack
  utilization.
* **Selection fairness (Eq. 20).** The utility-decay term exists to
  spread participation; the Jain index over per-device selection
  counts (and over per-device energy) quantifies how evenly the run
  actually spread it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import wire
from repro.errors import SerializationError
from repro.obs.analysis.spans import SpanSummary, summarize_spans
from repro.obs.events import Event
from repro.sequential import sequential_sum

__all__ = [
    "ANALYSIS_SCHEMA",
    "RoundStats",
    "DeviceStats",
    "RunStats",
    "jain_index",
    "split_runs",
    "compute_run_stats",
]

ANALYSIS_SCHEMA = "repro.obs.analysis/v1"
"""Marker naming the JSON shape of :meth:`RunStats.to_dict`."""


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly even; ``1/n`` means one member took
    everything. Empty or all-zero inputs read as perfectly fair.
    """
    floats = [float(v) for v in values]
    n = len(floats)
    if n == 0:
        return 1.0
    square_sum = sequential_sum([v * v for v in floats])
    if square_sum == 0.0:
        return 1.0
    total = sequential_sum(floats)
    return (total * total) / (n * square_sum)


@wire.record
@dataclass(frozen=True)
class RoundStats:
    """Everything one round's events say about it.

    Fields sourced from events that a truncated (crashed) trace may
    lack are ``Optional`` — a round whose ``timeline`` never made it
    to disk still reports its selection.

    Attributes:
        round_index: 1-based FL round index ``j``.
        selected_ids: ``Gamma_j`` in selection order (over-selection
            extras included).
        aggregated: updates the server integrated (None if the
            ``aggregation`` event is missing from a crash tail).
        total_weight: summed FedAvg weights of the integrated updates.
        dropped_ids: clients lost to faults or batteries.
        timeout_ids: clients cut off by the round deadline.
        fault_count: injected-fault events this round.
        reassigned_frequencies: whether DVFS re-planned mid-round.
        round_delay: Eq. (10) seconds.
        round_energy: Eq. (11) joules.
        compute_energy: compute share of ``round_energy``.
        upload_energy: upload share of ``round_energy``.
        slack: total idle wait across selected users, seconds.
        cumulative_time: simulated clock after this round.
        cumulative_energy: total energy after this round.
        fmax_compute_energy: Eq. (5) counterfactual compute energy had
            every user run at ``f_max`` (None without per-device
            events — pre-analytics traces).
        fmax_slack: counterfactual idle wait of the all-``f_max`` FIFO
            schedule, over users whose upload completed.
        ok_slack: traced idle wait over the same completed users.
        test_loss: global-model test loss (None without evaluation).
        test_accuracy: global-model test accuracy.
    """

    round_index: int
    selected_ids: Tuple[int, ...]
    aggregated: Optional[int] = None
    total_weight: Optional[float] = None
    dropped_ids: Tuple[int, ...] = ()
    timeout_ids: Tuple[int, ...] = ()
    fault_count: int = 0
    reassigned_frequencies: bool = False
    round_delay: Optional[float] = None
    round_energy: Optional[float] = None
    compute_energy: Optional[float] = None
    upload_energy: Optional[float] = None
    slack: Optional[float] = None
    cumulative_time: Optional[float] = None
    cumulative_energy: Optional[float] = None
    fmax_compute_energy: Optional[float] = None
    fmax_slack: Optional[float] = None
    ok_slack: Optional[float] = None
    test_loss: Optional[float] = None
    test_accuracy: Optional[float] = None

    @property
    def planned(self) -> int:
        """Clients the round planned to integrate (selection size)."""
        return len(self.selected_ids)

    @property
    def dvfs_savings(self) -> Optional[float]:
        """Joules Algorithm 3 saved vs. the all-``f_max`` schedule."""
        if self.fmax_compute_energy is None or self.compute_energy is None:
            return None
        return self.fmax_compute_energy - self.compute_energy

    @property
    def slack_utilization(self) -> Optional[float]:
        """Fraction of the ``f_max`` schedule's slack DVFS consumed."""
        if self.fmax_slack is None or self.ok_slack is None:
            return None
        if self.fmax_slack <= 0.0:
            return 0.0
        return 1.0 - self.ok_slack / self.fmax_slack


@wire.record
@dataclass(frozen=True)
class DeviceStats:
    """One device's footprint across the run.

    Attributes:
        device_id: the device.
        f_max: its maximum CPU frequency (0.0 without per-device
            events).
        selected: rounds the device was selected in.
        participated: rounds it actually executed (timeline entries —
            pre-compute dropouts never reach the timeline).
        completed: rounds its upload reached the server.
        dropped: rounds its update was lost (faults, batteries).
        timeouts: rounds the deadline cut it off.
        compute_joules: total Eq. (5) energy actually spent.
        upload_joules: total Eq. (8) energy actually spent.
        slack_seconds: total idle wait.
        fmax_compute_joules: Eq. (5) counterfactual compute energy at
            ``f_max``.
    """

    device_id: int
    f_max: float = 0.0
    selected: int = 0
    participated: int = 0
    completed: int = 0
    dropped: int = 0
    timeouts: int = 0
    compute_joules: float = 0.0
    upload_joules: float = 0.0
    slack_seconds: float = 0.0
    fmax_compute_joules: float = 0.0

    @property
    def total_joules(self) -> float:
        """Compute plus upload energy actually spent."""
        return self.compute_joules + self.upload_joules

    @property
    def dvfs_savings(self) -> float:
        """Joules DVFS saved this device vs. always-``f_max``."""
        return self.fmax_compute_joules - self.compute_joules


@wire.record
@dataclass(frozen=True)
class RunStats(wire.Document):
    """The derived analytics of one training run's trace segment.

    Its snapshot is marked with :data:`ANALYSIS_SCHEMA` so the
    comparator (and CI snapshot artifacts) can tell a stats document
    from a raw trace, and carries the :class:`repro.wire.derived`
    aggregates beside the fields; on load they recompute from the
    round/device tables. ``spans`` may be absent (pre-span snapshots
    such as committed bench baselines).

    Attributes:
        label: the run's history label (from ``run_stop``; empty for a
            truncated run).
        stop_reason: why the run ended (None for a truncated run).
        truncated: True when the segment never reached ``run_stop``.
        source: where the trace came from.
        total_time: final simulated clock, seconds.
        total_energy: final total energy, joules.
        rounds: per-round stats in round order.
        devices: per-device stats sorted by device id.
        fault_counts: injected faults per fault kind.
        drop_causes: lost clients per ``client_dropped`` cause.
        degraded_rounds: rounds that lost at least one planned update.
        battery_drop_rounds: rounds where natural battery depletion
            dropped updates.
        spans: structural span digest (empty for traces recorded with
            spans disabled, or by pre-span trainers).
    """

    noun = "stats snapshot"
    schema = ANALYSIS_SCHEMA
    format = dict(sort_keys=True, indent=2)

    label: str
    stop_reason: Optional[str]
    truncated: bool
    source: str
    total_time: float
    total_energy: float
    rounds: Tuple[RoundStats, ...]
    devices: Tuple[DeviceStats, ...]
    fault_counts: Dict[str, int]
    drop_causes: Dict[str, int]
    degraded_rounds: int
    battery_drop_rounds: int
    spans: SpanSummary = field(default_factory=SpanSummary)

    # -- run-level aggregates -------------------------------------------
    @wire.derived
    def num_rounds(self) -> int:
        """Rounds the segment recorded (selection events)."""
        return len(self.rounds)

    @wire.derived
    def total_compute_energy(self) -> float:
        """Summed compute energy across rounds, joules."""
        return sequential_sum([r.compute_energy or 0.0 for r in self.rounds])

    @wire.derived
    def total_upload_energy(self) -> float:
        """Summed upload energy across rounds, joules."""
        return sequential_sum([r.upload_energy or 0.0 for r in self.rounds])

    @wire.derived
    def total_slack(self) -> float:
        """Summed idle wait across rounds, seconds."""
        return sequential_sum([r.slack or 0.0 for r in self.rounds])

    @wire.derived
    def fmax_compute_energy(self) -> Optional[float]:
        """Run-total Eq. (5) all-``f_max`` counterfactual energy."""
        values = [
            r.fmax_compute_energy
            for r in self.rounds
            if r.fmax_compute_energy is not None
        ]
        return sequential_sum(values) if values else None

    @wire.derived
    def dvfs_savings(self) -> Optional[float]:
        """Run-total joules saved vs. the all-``f_max`` schedule."""
        counterfactual = self.fmax_compute_energy
        if counterfactual is None:
            return None
        return counterfactual - self.total_compute_energy

    @wire.derived
    def dvfs_saving_fraction(self) -> Optional[float]:
        """Savings as a fraction of counterfactual compute energy."""
        counterfactual = self.fmax_compute_energy
        if counterfactual is None or counterfactual <= 0.0:
            return None
        return 1.0 - self.total_compute_energy / counterfactual

    @wire.derived
    def slack_utilization(self) -> Optional[float]:
        """Run-level fraction of available slack DVFS consumed."""
        fmax = [r.fmax_slack for r in self.rounds if r.fmax_slack is not None]
        ok = [r.ok_slack for r in self.rounds if r.ok_slack is not None]
        if not fmax:
            return None
        available = sequential_sum(fmax)
        if available <= 0.0:
            return 0.0
        return 1.0 - sequential_sum(ok) / available

    @property
    def selection_counts(self) -> Dict[int, int]:
        """Rounds each device was selected in (Eq. 20's ``alpha_q``)."""
        return {d.device_id: d.selected for d in self.devices}

    @wire.derived
    def jain_selection(self) -> float:
        """Jain fairness of selection counts over devices seen."""
        return jain_index([d.selected for d in self.devices])

    @wire.derived
    def jain_energy(self) -> float:
        """Jain fairness of per-device total energy."""
        return jain_index([d.total_joules for d in self.devices])

    @wire.derived
    def clients_dropped(self) -> int:
        """Total dropped client-rounds."""
        return sum(len(r.dropped_ids) for r in self.rounds)

    @wire.derived
    def clients_timeout(self) -> int:
        """Total deadline-cut client-rounds."""
        return sum(len(r.timeout_ids) for r in self.rounds)

    @wire.derived
    def evaluations(self) -> int:
        """Global-model evaluations recorded."""
        return sum(1 for r in self.rounds if r.test_accuracy is not None)

    @wire.derived
    def final_accuracy(self) -> Optional[float]:
        """Last evaluated test accuracy (None if never evaluated)."""
        for record in reversed(self.rounds):
            if record.test_accuracy is not None:
                return record.test_accuracy
        return None

    @wire.derived
    def best_accuracy(self) -> Optional[float]:
        """Highest evaluated test accuracy (None if never evaluated)."""
        values = [
            r.test_accuracy for r in self.rounds if r.test_accuracy is not None
        ]
        return max(values) if values else None

    @wire.derived
    def final_test_loss(self) -> Optional[float]:
        """Last evaluated test loss (None if never evaluated)."""
        for record in reversed(self.rounds):
            if record.test_loss is not None:
                return record.test_loss
        return None


def split_runs(events: Sequence[Event]) -> List[Tuple[Event, ...]]:
    """Split a trace into per-run segments at ``run_stop`` boundaries.

    Multi-run traces happen when one sink observes several strategies
    (e.g. a traced ``fig2``). The terminal ``run_stop`` closes each
    segment; a trailing segment without one (a crash tail) is kept as
    the final, truncated entry.
    """
    segments: List[Tuple[Event, ...]] = []
    current: List[Event] = []
    for event in events:
        current.append(event)
        if event.kind == "run_stop":
            segments.append(tuple(current))
            current = []
    if current:
        segments.append(tuple(current))
    return segments


def _fmax_queue_slack(entries) -> float:
    """Idle wait of the all-``f_max`` FIFO schedule over ``entries``.

    Replays Eq. (10)'s channel queue with each completed user's compute
    delay rescaled by ``f / f_max`` (Eq. 4: delay is proportional to
    ``1/f``) and its traced upload delay unchanged, matching
    :func:`repro.network.tdma.simulate_tdma_round`'s grant order
    (compute finish, ties by device id).
    """
    staged = sorted(
        (
            (e.compute_delay * e.frequency / e.f_max, e.device_id, e.upload_delay)
            for e in entries
            if e.outcome == "ok"
        ),
    )
    channel_free = 0.0
    slack = 0.0
    for compute_end, _, upload_delay in staged:
        upload_start = max(compute_end, channel_free)
        slack += upload_start - compute_end
        channel_free = upload_start + upload_delay
    return slack


def compute_run_stats(events: Sequence[Event], source: str = "") -> RunStats:
    """Derive one run's :class:`RunStats` from its event segment.

    Args:
        events: the events of exactly one run (use :func:`split_runs`
            first for multi-run traces).
        source: provenance string recorded on the result.

    Raises:
        SerializationError: when the segment contains more than one
            run (a second ``selection`` for an already-seen round, or
            events after ``run_stop``).
    """
    rounds: Dict[int, dict] = {}
    order: List[int] = []
    devices: Dict[int, dict] = {}
    fault_counts: Dict[str, int] = {}
    drop_causes: Dict[str, int] = {}
    degraded_rounds = 0
    battery_drop_rounds = 0
    label = ""
    stop_reason: Optional[str] = None
    total_time = 0.0
    total_energy = 0.0

    def round_slot(index: int) -> dict:
        if index not in rounds:
            rounds[index] = {"device_entries": []}
            order.append(index)
        return rounds[index]

    def device_slot(device_id: int) -> dict:
        if device_id not in devices:
            devices[device_id] = asdict(DeviceStats(device_id))
        return devices[device_id]

    for event in events:
        if stop_reason is not None:
            raise SerializationError(
                f"{source or 'trace'}: events continue after run_stop — "
                "multiple runs in one segment (use split_runs first)"
            )
        kind = event.kind
        if kind == "selection":
            slot = round_slot(event.round_index)
            if "selected_ids" in slot:
                raise SerializationError(
                    f"{source or 'trace'}: round {event.round_index} "
                    "selected twice — multiple runs in one segment "
                    "(use split_runs first)"
                )
            slot["selected_ids"] = event.selected_ids
            for device_id in event.selected_ids:
                device_slot(device_id)["selected"] += 1
        elif kind == "device_round":
            slot = round_slot(event.round_index)
            slot["device_entries"].append(event)
            device = device_slot(event.device_id)
            device["f_max"] = event.f_max
            device["participated"] += 1
            if event.outcome == "ok":
                device["completed"] += 1
            device["compute_joules"] += event.compute_energy
            device["upload_joules"] += event.upload_energy
            device["slack_seconds"] += event.slack
            scale = event.f_max / event.frequency
            device["fmax_compute_joules"] += (
                event.compute_energy * scale * scale
            )
        elif kind == "timeline":
            slot = round_slot(event.round_index)
            slot["timeline"] = event
            total_time = event.cumulative_time
            total_energy = event.cumulative_energy
        elif kind == "aggregation":
            slot = round_slot(event.round_index)
            slot["aggregated"] = event.num_updates
            slot["total_weight"] = event.total_weight
        elif kind == "eval":
            slot = round_slot(event.round_index)
            slot["test_loss"] = event.test_loss
            slot["test_accuracy"] = event.test_accuracy
        elif kind == "fault_injected":
            slot = round_slot(event.round_index)
            slot["fault_count"] = slot.get("fault_count", 0) + 1
            fault_counts[event.fault] = fault_counts.get(event.fault, 0) + 1
        elif kind == "client_dropped":
            drop_causes[event.cause] = drop_causes.get(event.cause, 0) + 1
            device_slot(event.device_id)["dropped"] += 1
        elif kind == "round_degraded":
            slot = round_slot(event.round_index)
            slot["dropped_ids"] = event.dropped_ids
            slot["timeout_ids"] = event.timeout_ids
            slot["reassigned"] = event.reassigned_frequencies
            degraded_rounds += 1
            for device_id in event.timeout_ids:
                device_slot(device_id)["timeouts"] += 1
        elif kind == "battery_drop":
            battery_drop_rounds += 1
        elif kind == "run_stop":
            label = event.label
            stop_reason = event.reason
            total_time = event.cumulative_time
            total_energy = event.cumulative_energy

    round_stats: List[RoundStats] = []
    for index in sorted(order):
        slot = rounds[index]
        if "selected_ids" not in slot:
            # Only reachable on hand-built segments (e.g. a lone eval
            # event); a trainer trace always opens rounds with selection.
            slot["selected_ids"] = ()
        entries = slot["device_entries"]
        # A round's delay/energy/slack/cumulative_* fields are its timeline
        # event's, name for name; absent (crash tail) they stay None.
        timeline = slot.get("timeline")
        timeline_fields = dict(vars(timeline)) if timeline else {}
        timeline_fields.pop("round_index", None)
        fmax_compute = None
        fmax_slack = None
        ok_slack = None
        if entries:
            fmax_compute = sequential_sum(
                [e.compute_energy * (e.f_max / e.frequency) ** 2 for e in entries]
            )
            fmax_slack = _fmax_queue_slack(entries)
            ok_slack = sequential_sum([e.slack for e in entries if e.outcome == "ok"])
        round_stats.append(
            RoundStats(
                round_index=index,
                selected_ids=slot["selected_ids"],
                aggregated=slot.get("aggregated"),
                total_weight=slot.get("total_weight"),
                dropped_ids=slot.get("dropped_ids", ()),
                timeout_ids=slot.get("timeout_ids", ()),
                fault_count=slot.get("fault_count", 0),
                reassigned_frequencies=slot.get("reassigned", False),
                fmax_compute_energy=fmax_compute,
                fmax_slack=fmax_slack,
                ok_slack=ok_slack,
                test_loss=slot.get("test_loss"),
                test_accuracy=slot.get("test_accuracy"),
                **timeline_fields,
            )
        )

    device_stats = tuple(
        DeviceStats(**devices[device_id]) for device_id in sorted(devices)
    )
    return RunStats(
        label=label,
        stop_reason=stop_reason,
        truncated=stop_reason is None,
        source=source,
        total_time=total_time,
        total_energy=total_energy,
        rounds=tuple(round_stats),
        devices=device_stats,
        fault_counts=fault_counts,
        drop_causes=drop_causes,
        degraded_rounds=degraded_rounds,
        battery_drop_rounds=battery_drop_rounds,
        spans=summarize_spans(events),
    )
