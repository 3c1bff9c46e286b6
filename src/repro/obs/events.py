"""Typed per-round events of a federated training run.

Every observable step of Algorithm 1 emits one event: the selection of
``Gamma_j``, the DVFS frequency assignment, injected faults and the
clients they cost, the simulated TDMA timeline, battery-driven update
drops, round-degradation summaries, the FedAvg aggregation, each
global-model evaluation, and finally the run's stop (with the reason —
deadline, target accuracy, plateau, round-budget exhaustion, or an
escaped error).

Events are frozen dataclasses with a stable string ``kind`` and a
:meth:`Event.to_dict` JSON-friendly form; :mod:`repro.obs.schema`
validates the serialized shape and :mod:`repro.obs.sinks` carries the
stream to its destination. Events describe the run — they never feed
back into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Dict, Tuple

from repro import wire

__all__ = [
    "StopReason",
    "Event",
    "SelectionEvent",
    "FrequencyAssignmentEvent",
    "FaultInjectedEvent",
    "ClientDroppedEvent",
    "DeviceRoundEvent",
    "TimelineEvent",
    "BatteryDropEvent",
    "RoundDegradedEvent",
    "AggregationEvent",
    "EvalEvent",
    "SpanStartEvent",
    "SpanEndEvent",
    "WorkerResourceEvent",
    "RunStopEvent",
    "EVENT_TYPES",
]


class StopReason(str, Enum):
    """Why a training run ended.

    Attributes:
        ROUNDS_EXHAUSTED: the configured round budget ``J`` ran out.
        DEADLINE: the simulated clock passed ``deadline_s``
            (constraint 14).
        TARGET_ACCURACY: test accuracy reached ``target_accuracy``.
        PLATEAU: the test loss stopped improving for
            ``convergence_patience`` evaluations (Algorithm 1's
            convergence check).
        ERROR: an exception escaped the round loop; the trainer emits
            the terminal ``run_stop`` event before re-raising so a
            crashed (e.g. chaos) run still leaves a well-terminated
            trace.
    """

    ROUNDS_EXHAUSTED = "rounds_exhausted"
    DEADLINE = "deadline"
    TARGET_ACCURACY = "target_accuracy"
    PLATEAU = "plateau"
    ERROR = "error"


@dataclass(frozen=True)
class Event(wire.Tagged, tag="event"):
    """Base class of all trace events.

    Declaring an event is subclassing this (see
    :class:`repro.wire.Tagged`): give the class a ``kind`` (the stable
    wire name appearing as the ``"event"`` key of the serialized form)
    and annotate its payload fields with types from
    :data:`repro.wire.SHAPES`. Subclassing makes it a frozen dataclass,
    resolves its fields against the wire table — which is all that
    :meth:`to_dict`, :func:`repro.obs.schema.validate_event` and
    :func:`repro.obs.analysis.event_from_payload` read — and registers
    it in :data:`EVENT_TYPES`. Do not decorate subclasses.
    """

    kind: ClassVar[str] = "event"


EVENT_TYPES: Dict[str, type] = Event.__members__
"""Registry mapping each event ``kind`` to its dataclass.

Filled by subclassing :class:`Event`, in declaration order.
"""


class SelectionEvent(Event):
    """The user set ``Gamma_j`` chosen for one round.

    Attributes:
        round_index: 1-based FL round index ``j``.
        selected_ids: device ids in selection order.
    """

    kind = "selection"

    round_index: int
    selected_ids: Tuple[int, ...]


class FrequencyAssignmentEvent(Event):
    """The CPU operating frequencies assigned to the selected users.

    Attributes:
        round_index: 1-based FL round index ``j``.
        frequencies: mapping from device id to assigned frequency (Hz).
    """

    kind = "frequency_assignment"

    round_index: int
    frequencies: Dict[int, float]


class FaultInjectedEvent(Event):
    """One fault from the active :class:`repro.faults.FaultPlan` fired.

    Emitted before the round's local updates run, once per firing
    fault, in (spec, device) order.

    Attributes:
        round_index: 1-based FL round index ``j``.
        device_id: the victim device.
        fault: the fault kind (``"dropout"``, ``"straggler"``,
            ``"channel"``, ``"battery_death"``).
        detail: phase/mode qualifier (e.g. ``"before_compute"``,
            ``"degrade"``); empty when the kind needs none.
        magnitude: the fault's scalar (progress, slowdown, rate
            scale); 1.0 where meaningless.
    """

    kind = "fault_injected"

    round_index: int
    device_id: int
    fault: str
    detail: str
    magnitude: float


class ClientDroppedEvent(Event):
    """One selected client's update was lost in a degraded round.

    Emitted once per lost client on rounds where fault injection or
    the round deadline is active, covering every loss cause (the
    battery-specific aggregate :class:`BatteryDropEvent` is still
    emitted alongside for battery-caused drops).

    Attributes:
        round_index: 1-based FL round index ``j``.
        device_id: the client whose update was lost.
        cause: why — ``"dropout"``, ``"channel_outage"``,
            ``"battery_death"``, ``"battery"`` (natural depletion), or
            ``"round_deadline"``.
        phase: where in the round — ``"before_compute"``,
            ``"compute"``, ``"upload"``, or ``"round"`` (losses only
            resolvable at round granularity, e.g. battery accounting).
    """

    kind = "client_dropped"

    round_index: int
    device_id: int
    cause: str
    phase: str


class DeviceRoundEvent(Event):
    """One selected user's cost breakdown within a TDMA round.

    The per-user complement of :class:`TimelineEvent`: one event per
    entry of the round's :class:`~repro.network.tdma.RoundTimeline`,
    in channel-grant order (fault-lost users trail the queued ones).
    Carrying both the operating frequency and the device's ``f_max``
    makes the trace self-contained for DVFS attribution: Eq. (5)
    scales compute energy by ``f^2`` and Eq. (4) scales compute delay
    by ``1/f``, so :mod:`repro.obs.analysis` can recompute the
    all-``f_max`` counterfactual without the device objects.

    Attributes:
        round_index: 1-based FL round index ``j``.
        device_id: the user's id.
        frequency: CPU operating frequency used this round (Hz).
        f_max: the device's maximum CPU frequency (Hz).
        compute_delay: Eq. (4) seconds actually spent computing (partial
            for users lost mid-compute).
        upload_delay: Eq. (7) seconds actually spent uploading.
        slack: idle wait between compute end and channel grant, seconds.
        compute_energy: Eq. (5) joules actually spent computing.
        upload_energy: Eq. (8) joules actually spent uploading.
        outcome: ``"ok"``, ``"dropped"``, or ``"timeout"`` (the shared
            :data:`repro.network.tdma.CLIENT_OUTCOMES` vocabulary).
    """

    kind = "device_round"

    round_index: int
    device_id: int
    frequency: float
    f_max: float
    compute_delay: float
    upload_delay: float
    slack: float
    compute_energy: float
    upload_energy: float
    # repro.network.tdma.CLIENT_OUTCOMES, kept literal so the trace
    # schema does not import the simulator; a meta-test pins the two.
    outcome: str = wire.one_of(("ok", "dropped", "timeout"))


class TimelineEvent(Event):
    """The simulated TDMA cost of one round (Eqs. 10–11).

    Attributes:
        round_index: 1-based FL round index ``j``.
        round_delay: Eq. (10) for this round, seconds.
        round_energy: Eq. (11) for this round, joules.
        compute_energy: compute share of ``round_energy``.
        upload_energy: upload share of ``round_energy``.
        slack: total idle wait across selected users, seconds.
        cumulative_time: simulated clock after this round, seconds.
        cumulative_energy: total energy after this round, joules.
    """

    kind = "timeline"

    round_index: int
    round_delay: float
    round_energy: float
    compute_energy: float
    upload_energy: float
    slack: float
    cumulative_time: float
    cumulative_energy: float


class BatteryDropEvent(Event):
    """Devices whose battery could not pay the round (update dropped).

    Emitted only on rounds where battery enforcement actually dropped
    at least one update.

    Attributes:
        round_index: 1-based FL round index ``j``.
        dropped_ids: ids of the devices that shut down, in selection
            order.
    """

    kind = "battery_drop"

    round_index: int
    dropped_ids: Tuple[int, ...]


class RoundDegradedEvent(Event):
    """A round ended with fewer integrated updates than planned.

    Emitted at most once per round, after battery enforcement and
    before aggregation, on rounds where fault injection, the round
    deadline, or battery enforcement lost at least one planned update
    — or where a pre-compute dropout forced the DVFS slack schedule to
    be recomputed.

    Attributes:
        round_index: 1-based FL round index ``j``.
        planned: clients originally selected (after over-selection).
        aggregated: surviving updates the server integrated.
        dropped_ids: clients lost to faults or batteries, in selection
            order.
        timeout_ids: clients cut off by the round deadline, in
            selection order.
        reassigned_frequencies: whether the frequency policy re-ran
            over the survivors after a pre-compute dropout.
    """

    kind = "round_degraded"

    round_index: int
    planned: int
    aggregated: int
    dropped_ids: Tuple[int, ...]
    timeout_ids: Tuple[int, ...]
    reassigned_frequencies: bool


class AggregationEvent(Event):
    """The FedAvg integration step of one round (Eq. 18).

    Attributes:
        round_index: 1-based FL round index ``j``.
        num_updates: client updates the server integrated (0 when
            every update was dropped).
        total_weight: summed FedAvg weights ``sum |D_q|`` of the
            integrated updates.
    """

    kind = "aggregation"

    round_index: int
    num_updates: int
    total_weight: float


class EvalEvent(Event):
    """One global-model evaluation on the server's test set.

    Attributes:
        round_index: 1-based FL round index ``j``.
        test_loss: global-model test loss.
        test_accuracy: global-model test accuracy in ``[0, 1]``.
    """

    kind = "eval"

    round_index: int
    test_loss: float
    test_accuracy: float


class SpanStartEvent(Event):
    """A hierarchical timing span opened (see :mod:`repro.obs.spans`).

    Span ids are deterministic path-like names (``"run"``,
    ``"round-3"``, ``"round-3/selection"``,
    ``"round-3/task-17"``), so two identical runs produce identical
    span *structure*; only the wall-clock annotations differ.

    Attributes:
        round_index: 1-based FL round the span belongs to (0 for
            run/campaign-level spans).
        span_id: the span's deterministic id, unique within a run.
        parent_id: the enclosing span's id (``""`` for a root span).
        name: the span's human-readable stage name (e.g.
            ``"selection"``; not necessarily unique).
        t_wall: wall-clock time at open, seconds (observational only —
            never compared or replayed).
        pid: OS process id of the process that *measured* the span
            (worker-side task spans carry the worker's pid even though
            the parent writes the event).
    """

    kind = "span_start"

    round_index: int
    span_id: str
    parent_id: str
    name: str
    t_wall: float
    pid: int


class SpanEndEvent(Event):
    """A previously opened span closed.

    Attributes:
        round_index: 1-based FL round the span belongs to (0 for
            run/campaign-level spans).
        span_id: the id from the matching :class:`SpanStartEvent`.
        t_wall: wall-clock time at close, seconds (observational only).
        duration_s: measured wall-clock duration, seconds.
        pid: OS process id of the process that measured the span.
    """

    kind = "span_end"

    round_index: int
    span_id: str
    t_wall: float
    duration_s: float
    pid: int


class WorkerResourceEvent(Event):
    """Sampled OS resource usage of the process that ran a span.

    Emitted between a span's start and end events (so analysis
    attributes it to that span). For process-backend task spans the
    sample is taken *inside the worker* and shipped back with the
    result; for serial/thread backends it describes the parent
    process. Values are observational only and never enter compared
    metrics.

    Attributes:
        round_index: 1-based FL round of the owning span (0 for
            run-level samples).
        span_id: the owning span's id.
        pid: OS process id the sample describes.
        rss_peak_kb: lifetime peak resident set size of that process,
            kilobytes (``ru_maxrss``).
        cpu_user_s: user-mode CPU seconds spent inside the span.
        cpu_sys_s: kernel-mode CPU seconds spent inside the span.
    """

    kind = "worker_resource"

    round_index: int
    span_id: str
    pid: int
    rss_peak_kb: float
    cpu_user_s: float
    cpu_sys_s: float


class RunStopEvent(Event):
    """The end of a training run, with the reason it stopped.

    Attributes:
        round_index: the last round that executed.
        reason: a :class:`StopReason` value.
        cumulative_time: final simulated clock, seconds.
        cumulative_energy: final total energy, joules.
        label: the run's history label (e.g. ``"HELCFL"``).
    """

    kind = "run_stop"

    round_index: int
    reason: str = wire.one_of(r.value for r in StopReason)
    cumulative_time: float
    cumulative_energy: float
    label: str = ""
