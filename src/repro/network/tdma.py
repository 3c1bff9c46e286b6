"""TDMA round-timeline simulation.

In the paper's TDMA FL (Fig. 1), all selected users compute their local
updates in parallel, but the MEC uplink serves one uploader at a time:
when a user finishes computing it must wait for the channel to free up
before uploading. The waiting interval is that user's *slack time* —
the quantity HELCFL's Algorithm 3 converts into energy savings by
slowing the CPU so the update finishes exactly when the channel frees.

:func:`simulate_tdma_round` reproduces this timeline exactly for any
assignment of operating frequencies, yielding per-user compute/upload
windows, slack, and energies, plus the synchronized round delay
(Eq. 10) and round energy (Eq. 11). It is both the execution engine of
the FL trainer and the independent oracle the tests use to verify
Algorithm 3.

The round is held column-wise: :class:`RoundTimeline` is ten parallel
arrays in channel-grant order plus the round totals, and every stage
of the simulation is an array expression over the selected set. The
FIFO channel recurrence is a scan over plain floats that takes scalar
steps only where the channel idles: each run of users waiting for it
is folded at once by :func:`repro.sequential.queued_run`, with the
same additions and comparisons. :class:`UserTimeline` objects exist
only as a lazily built view (:attr:`RoundTimeline.users`) for reports
and tests.

The simulator also accepts the per-device *perturbations* the fault
layer (:mod:`repro.faults`) resolves — straggler compute-delay
multipliers, during-compute deaths, channel outages/degradations, and
a hard round deadline. Each perturbed user carries an ``outcome``
(``"ok"``, ``"dropped"``, ``"timeout"``) and only the energy it
actually spent; with no perturbations the timeline is bitwise
identical to the unperturbed simulation.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from typing import (
    AbstractSet,
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation
from repro.errors import FrequencyRangeError, NetworkError
from repro.sequential import MIN_RUN, queued_run, rank_by, rows, sequential_sum

__all__ = [
    "OUTCOME_OK",
    "OUTCOME_DROPPED",
    "OUTCOME_TIMEOUT",
    "CLIENT_OUTCOMES",
    "UserTimeline",
    "RoundTimeline",
    "simulate_tdma_round",
]

OUTCOME_OK = "ok"
OUTCOME_DROPPED = "dropped"
OUTCOME_TIMEOUT = "timeout"
CLIENT_OUTCOMES: Tuple[str, ...] = (OUTCOME_OK, OUTCOME_DROPPED, OUTCOME_TIMEOUT)
"""The per-user round outcomes (the trainer's ``STATUS_*`` names)."""


@dataclass(frozen=True)
class UserTimeline:
    """One user's schedule within a TDMA round (all times from round start).

    Attributes:
        device_id: the user's id.
        frequency: CPU operating frequency used for the local update.
        compute_delay: Eq. (4) at ``frequency``.
        compute_end: when the local update finishes (= compute_delay).
        upload_start: when the channel is granted to this user.
        upload_end: when the model upload completes.
        upload_delay: Eq. (7).
        slack: idle wait between compute end and upload start.
        compute_energy: Eq. (5) at ``frequency``.
        upload_energy: Eq. (8).
        outcome: ``"ok"`` for a completed upload, ``"dropped"`` for a
            device lost to a fault (during-compute death or channel
            outage), ``"timeout"`` for one cut off by the round
            deadline. For non-``"ok"`` users the delay/energy fields
            cover only the portion actually executed (a user dead at
            40% of its compute shows 40% of the delay and energy, and
            zero upload cost).
    """

    device_id: int
    frequency: float
    compute_delay: float
    compute_end: float
    upload_start: float
    upload_end: float
    upload_delay: float
    slack: float
    compute_energy: float
    upload_energy: float
    outcome: str = OUTCOME_OK

    @property
    def total_energy(self) -> float:
        """Per-user round energy ``E_cal + E_com``."""
        return self.compute_energy + self.upload_energy

    @property
    def total_delay(self) -> float:
        """Eq. (9) including queueing: time until this user is done."""
        return self.upload_end


_CODE_OK, _CODE_DROPPED, _CODE_TIMEOUT = range(len(CLIENT_OUTCOMES))


def _column(dtype=np.float64):
    """Dataclass field holding an empty column of ``dtype`` by default."""
    return field(default_factory=partial(np.empty, 0, dtype))


@dataclass(frozen=True, eq=False)
class RoundTimeline:
    """The complete schedule of one TDMA FL round, held column-wise.

    Ten parallel arrays with one position per user. Entries are in
    grant order, lost-before-queue users last: first the users that
    reached the channel queue, in the order the channel was granted
    (compute finish, ties by device id), then the users that never
    queued (dead mid-compute, or still computing at the round
    deadline), in the same sort order. All times count from the round
    start; a user's compute end equals its ``compute_delay``.

    ``RoundTimeline()`` is the round in which nobody computed: empty
    columns, no delay, no energy. Two timelines are equal when every
    column and every total is.

    Attributes:
        device_ids: int64 user ids.
        frequency: CPU operating frequency used for the local update.
        compute_delay: Eq. (4) at ``frequency`` (the part executed, for
            users lost mid-compute).
        upload_start: when the channel is granted to the user.
        upload_end: when the user's upload completes or is cut.
        upload_delay: Eq. (7) seconds actually spent uploading.
        slack: idle wait ``upload_start - compute_delay``.
        compute_energy: Eq. (5) joules actually spent computing.
        upload_energy: Eq. (8) joules actually spent uploading.
        outcome_codes: int8 indices into :data:`CLIENT_OUTCOMES`.
        order: int64 position of each entry in the simulated devices
            (so ``population.take(order)`` is in entry order); not part
            of equality.
        round_delay: Eq. (10) — when the last upload completes.
        total_energy: Eq. (11) — sum of all users' energies.
        total_compute_energy: compute share of ``total_energy``.
        total_upload_energy: upload share of ``total_energy``.
        total_slack: summed idle wait across users.
    """

    device_ids: np.ndarray = _column(np.int64)
    frequency: np.ndarray = _column()
    compute_delay: np.ndarray = _column()
    upload_start: np.ndarray = _column()
    upload_end: np.ndarray = _column()
    upload_delay: np.ndarray = _column()
    slack: np.ndarray = _column()
    compute_energy: np.ndarray = _column()
    upload_energy: np.ndarray = _column()
    outcome_codes: np.ndarray = _column(np.int8)
    order: np.ndarray = _column(np.int64)
    round_delay: float = 0.0
    total_energy: float = 0.0
    total_compute_energy: float = 0.0
    total_upload_energy: float = 0.0
    total_slack: float = 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundTimeline):
            return NotImplemented
        return self._totals() == other._totals() and all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self._columns(), other._columns())
        )

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return (
            self.device_ids,
            self.frequency,
            self.compute_delay,
            self.upload_start,
            self.upload_end,
            self.upload_delay,
            self.slack,
            self.compute_energy,
            self.upload_energy,
            self.outcome_codes,
        )

    def _totals(self) -> Tuple[float, ...]:
        return (
            self.round_delay,
            self.total_energy,
            self.total_compute_energy,
            self.total_upload_energy,
            self.total_slack,
        )

    @cached_property
    def users(self) -> Tuple[UserTimeline, ...]:
        """Per-user :class:`UserTimeline` view of the columns, in entry
        order; built on first access and cached. For reports and tests —
        nothing on the round path reads it."""
        return tuple(
            UserTimeline(
                device_id=device_id,
                frequency=frequency,
                compute_delay=compute_delay,
                compute_end=compute_delay,
                upload_start=upload_start,
                upload_end=upload_end,
                upload_delay=upload_delay,
                slack=slack,
                compute_energy=compute_energy,
                upload_energy=upload_energy,
                outcome=CLIENT_OUTCOMES[code],
            )
            for (
                device_id,
                frequency,
                compute_delay,
                upload_start,
                upload_end,
                upload_delay,
                slack,
                compute_energy,
                upload_energy,
                code,
            ) in zip(*(column.tolist() for column in self._columns()))
        )

    def by_device(self) -> Dict[int, UserTimeline]:
        """Index the :attr:`users` view by device id."""
        return {entry.device_id: entry for entry in self.users}

    def outcomes(self) -> Dict[int, str]:
        """Map each device id to its round outcome."""
        return dict(
            zip(
                self.device_ids.tolist(),
                map(CLIENT_OUTCOMES.__getitem__, self.outcome_codes.tolist()),
            )
        )


def _id_aligned(
    values: Dict[int, float], ids: List[int], absent: float
) -> np.ndarray:
    """``values`` as a float64 array aligned to ``ids``."""
    return np.fromiter(
        map(values.get, ids, repeat(absent)), dtype=np.float64, count=len(ids)
    )


_NOT_A_FREQUENCY = (str, bytes, bool, np.bool_)


def _in_population_order(keys: Collection, device_ids: np.ndarray) -> bool:
    """Whether ``keys`` are exactly ``device_ids``, in order.

    ``struct`` packs integer keys in C; a key it cannot pack as an
    int64 (a float, a str, an id past int64) means no.
    """
    if len(keys) != device_ids.shape[0]:
        return False
    try:
        packed = struct.pack(f"{len(keys)}q", *keys)
    except struct.error:
        return False
    return packed == device_ids.tobytes()


def _frequency_column(values: Collection, device_ids: np.ndarray) -> np.ndarray:
    """``values``, aligned with ``device_ids``, as a float64 column.

    ``struct`` packs plain numbers in C and refuses a str (which
    ``np.fromiter`` would parse) or ``None``; a bool packs as 0.0 or
    1.0, so only values up to 1.0 have their type looked at.

    Raises:
        FrequencyRangeError: for a str, bytes or bool value.
    """
    try:
        column = np.frombuffer(
            struct.pack(f"{len(values)}d", *values), dtype=np.float64
        )
        suspects = np.flatnonzero(column <= 1.0).tolist()
    except struct.error:
        column = None
        suspects = range(len(values))
    if suspects:
        listed = list(values)
        for position in suspects:
            if isinstance(listed[position], _NOT_A_FREQUENCY):
                raise FrequencyRangeError(
                    f"frequency must be a number, got {listed[position]!r} "
                    f"for device {int(device_ids[position])}"
                )
    if column is None:
        # ``None`` reads as NaN, which the range check refuses.
        column = np.fromiter(values, dtype=np.float64, count=len(values))
    return column


def _last_end(ends: np.ndarray) -> float:
    """``max(ends.tolist())``: a NaN, which ``max`` keeps only in first
    place, sends the column through the list."""
    if np.isnan(ends).any():
        return max(ends.tolist())
    return float(ends.max())


def _members(keys: Iterable[int], device_ids: np.ndarray) -> np.ndarray:
    """Boolean mask of the ``device_ids`` that appear in ``keys``."""
    return np.isin(device_ids, np.fromiter(keys, dtype=np.int64))


def _require(valid: np.ndarray, values: np.ndarray, ids: List[int], rule: str) -> None:
    """Raise :class:`NetworkError` naming the first device whose
    id-aligned perturbation value breaks ``rule``."""
    if not valid.all():
        position = int(np.flatnonzero(~valid)[0])
        raise NetworkError(
            f"{rule}, got {float(values[position])} for device {ids[position]}"
        )


def _multipliers(values: Dict[int, float], ids: List[int], name: str) -> np.ndarray:
    """Id-aligned delay/energy multipliers; absent devices get 1.0,
    which multiplies exactly."""
    scale = _id_aligned(values, ids, 1.0)
    _require(
        np.isfinite(scale) & (scale > 0.0),
        scale,
        ids,
        f"{name} multipliers must be finite and positive",
    )
    return scale


def simulate_tdma_round(
    devices: Sequence[UserDevice],
    payload_bits: float,
    bandwidth_hz: float,
    frequencies: Optional[Dict[int, float]] = None,
    payloads: Optional[Dict[int, float]] = None,
    *,
    population: Optional[DevicePopulation] = None,
    compute_scale: Optional[Dict[int, float]] = None,
    drop_during: Optional[Dict[int, float]] = None,
    upload_outage: Optional[AbstractSet[int]] = None,
    upload_scale: Optional[Dict[int, float]] = None,
    round_deadline: Optional[float] = None,
) -> RoundTimeline:
    """Simulate one synchronous TDMA round.

    Users compute in parallel at their assigned frequencies, then
    upload one at a time in the order their computations finish (ties
    broken by device id, matching a FIFO channel queue). A user whose
    computation finishes while the channel is busy waits (slack).

    Staging, the sort, the fault masks, energies and outcomes are array
    expressions over the selected set. The channel queue is a true
    recurrence: each grant is ``upload_start = max(compute_end,
    channel_free_at)`` with ``channel_free_at`` the previous upload's
    end. Its closed form (a running maximum over cumulative sums of
    upload delays) adds the same numbers in another order, rounds
    differently in the last bit, and would break the bitwise contract
    with recorded histories. So the scan runs over plain floats, and
    a run of users who all wait, whose grants are exactly the running
    sum ``channel_free_at += held``, is folded by
    :func:`repro.sequential.queued_run`. The round totals are left
    folds in entry order (:func:`repro.sequential.sequential_sum`).

    Args:
        devices: the selected user set ``Gamma_j``. Snapshotted into
            a :class:`~repro.devices.DevicePopulation` when
            ``population`` is not given.
        payload_bits: model payload ``C_model`` in bits.
        bandwidth_hz: the MEC system's resource blocks ``Z`` in Hz.
        frequencies: mapping from device id to operating frequency;
            missing devices run at their ``f_max``. Frequencies are
            validated against each device's range. A map whose keys
            are the round's ids in population order (Algorithm 3's
            population-aligned column, zipped with the slice's ids) is
            read as a column: one comparison of its packed keys with
            ``population.device_ids``, then its values in C. Any other
            map (chain order, a subset, ids outside the round, keys
            that are not ints) is read id by id, to the same bits.
        payloads: optional per-device payload override in bits (e.g.
            compressed updates); missing devices use ``payload_bits``.
        population: the selected set as a
            :class:`~repro.devices.DevicePopulation` slice. When given
            it is the single source of the round's users and
            ``devices`` is not read — callers that hold no objects
            (e.g. a ``from_spec`` fleet) pass an empty ``devices``;
            a non-empty ``devices`` of another length is rejected.
        compute_scale: straggler multipliers per device id (``>= 1``
            for a slowdown; any finite positive factor is accepted);
            the device's compute delay *and* energy stretch by the
            factor (the CPU stays busy at the operating frequency for
            the contended window).
        drop_during: per-device compute progress in ``(0, 1]`` at which
            the device dies: it spends that fraction of its (possibly
            stretched) compute delay and energy, never uploads, and
            never contends for the channel.
        upload_outage: devices whose upload fails at their channel
            grant — full compute energy and slack are spent, no upload
            energy, and the channel is not occupied.
        upload_scale: channel-degradation multipliers per device id
            (``>= 1`` for a degraded link; any finite positive factor
            is accepted) applied to upload delay and energy (the
            inverse of the achieved rate fraction).
        round_deadline: hard per-round deadline in seconds. Users whose
            upload cannot complete by it are cut off with outcome
            ``"timeout"``, charged only the energy of the work executed
            before the cut, and the synchronous round lasts exactly
            until the deadline whenever anyone was cut.

    Returns:
        The full :class:`RoundTimeline`. Perturbed users appear with a
        non-``"ok"`` code in :attr:`RoundTimeline.outcome_codes`; users
        dead before reaching the channel queue are listed after the
        queued users. With every perturbation argument at its default
        the result is bitwise identical to the unperturbed simulation.
        Perturbations naming devices outside the round are ignored.

    Raises:
        NetworkError: for an empty selection, a ``devices`` whose
            length disagrees with ``population``, a ``round_deadline``
            that is not finite and positive, a ``compute_scale`` or
            ``upload_scale`` multiplier that is not finite and
            positive, or a ``drop_during`` progress outside ``(0, 1]``
            (the message names the first offending device id).
        FrequencyRangeError: if an assigned frequency is out of range
            or not finite, or is a str or bool rather than a number.
    """
    if population is None:
        if not devices:
            raise NetworkError(
                "cannot simulate a round with no selected devices"
            )
        population = DevicePopulation.from_devices(devices)
    elif devices and len(devices) != len(population):
        raise NetworkError(
            f"devices lists {len(devices)} users but population holds "
            f"{len(population)}; population is the one simulated"
        )
    deadline = None
    if round_deadline is not None:
        deadline = float(round_deadline)
        if not (math.isfinite(deadline) and deadline > 0.0):
            raise NetworkError(
                "round_deadline must be finite and positive when set, "
                f"got {round_deadline}"
            )

    # Stage every device's base quantities — Eq. (4)/(5) at the
    # validated frequency and Eq. (7)/(8) at its payload — as arrays in
    # population order, perturbation multipliers applied.
    size = len(population)
    device_ids = population.device_ids
    # A frequency map keyed by the round's ids in population order is
    # read as a column; any other id-keyed argument is aligned id by id,
    # on an id list built only then.
    in_order = bool(frequencies) and _in_population_order(frequencies, device_ids)
    ids = None
    keyed = (payloads, compute_scale, drop_during, upload_scale)
    if (frequencies and not in_order) or any(keyed):
        ids = device_ids.tolist()
    if not frequencies:
        freqs = population.f_max
    elif in_order:
        freqs = _frequency_column(frequencies.values(), device_ids)
    else:
        freqs = _frequency_column(
            list(map(frequencies.get, ids, population.f_max.tolist())),
            device_ids,
        )
    freqs = population.validate_frequencies(freqs)
    compute_delay = population.cycles / freqs
    compute_energy = population.compute_energy(freqs)
    payload = _id_aligned(payloads, ids, payload_bits) if payloads else payload_bits
    upload_delay = population.upload_delay(payload, bandwidth_hz)
    upload_energy = population.transmit_power * upload_delay
    if compute_scale:
        slowdown = _multipliers(compute_scale, ids, "compute_scale")
        compute_delay = compute_delay * slowdown
        compute_energy = compute_energy * slowdown
    if upload_scale:
        degradation = _multipliers(upload_scale, ids, "upload_scale")
        upload_delay = upload_delay * degradation
        upload_energy = upload_energy * degradation

    # Channel-grant order: first-come first-served on compute finish.
    order = rank_by(compute_delay, device_ids)

    # Users that never reach the channel queue: dead mid-compute, or
    # still computing when the server cut the round off. They keep
    # their place in the sort but are listed after the queued users.
    codes = np.zeros(size, dtype=np.int8)
    lost = None
    if drop_during:
        lost = _members(drop_during, device_ids)
        progress = _id_aligned(drop_during, ids, 1.0)
        _require(
            (progress > 0.0) & (progress <= 1.0),
            progress,
            ids,
            "drop_during progress must lie in (0, 1]",
        )
        codes[lost] = _CODE_DROPPED
        compute_delay = progress * compute_delay
        compute_energy = progress * compute_energy
    deadline_hit = False
    if deadline is not None:
        late = compute_delay >= deadline
        if lost is not None:
            late &= ~lost
        if late.any():
            deadline_hit = True
            compute_energy[late] = (
                deadline / compute_delay[late]
            ) * compute_energy[late]
            compute_delay[late] = deadline
            codes[late] = _CODE_TIMEOUT
            lost = late if lost is None else lost | late
    queued = size
    if lost is not None:
        lost = lost[order]
        queued = size - int(np.count_nonzero(lost))
        order = np.concatenate((order[~lost], order[lost]))

    device_ids = device_ids[order]
    freqs = freqs[order]
    compute_delay = compute_delay[order]
    compute_energy = compute_energy[order]
    upload_delay = upload_delay[order]
    upload_energy = upload_energy[order]
    codes = codes[order]
    # Whoever never queued never held the channel.
    upload_delay[queued:] = 0.0
    upload_energy[queued:] = 0.0
    # Views of the queued users; writes go through to the columns.
    queue_delay = upload_delay[:queued]
    queue_energy = upload_energy[:queued]
    queue_codes = codes[:queued]
    outage = None
    if upload_outage:
        # The link dies at the grant: no upload cost, channel not held.
        outage = _members(upload_outage, device_ids[:queued])
        queue_delay[outage] = 0.0
        queue_energy[outage] = 0.0
        queue_codes[outage] = _CODE_DROPPED

    # The FIFO channel: each grant is max(compute_end, channel_free_at)
    # with channel_free_at the previous upload's end, a scalar scan over
    # plain floats. Once MIN_RUN users in a row have waited, the run of
    # waiting users is folded as array operations by ``queued_run``.
    upload_start = compute_delay.copy()
    queue_start = upload_start[:queued]
    queue_end = compute_delay[:queued]

    def waits(free_at: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return free_at > queue_end[lo:hi]

    channel_free_at = 0.0
    position = 0
    while position < queued:
        run = 0  # users in a row that waited for the channel
        for compute_end, held in rows((queue_end, queue_delay), position):
            # max(compute_end, channel_free_at), without the call
            if channel_free_at > compute_end:
                granted_at = queue_start[position] = channel_free_at
                run += 1
            else:
                granted_at = compute_end  # already in queue_start
                run = 0
            channel_free_at = granted_at + held
            position += 1
            if run == MIN_RUN and position < queued:
                grants, channel_free_at = queued_run(
                    channel_free_at, queue_delay, position, waits
                )
                queue_start[position : position + grants.shape[0]] = grants
                position += grants.shape[0]
                break

    if deadline is None:
        upload_end = upload_start + upload_delay
    else:
        # The scan ran on past the deadline; fold it back. A user whose
        # grant came at or after the deadline never uploaded, the (at
        # most one) user uploading across it was cut there.
        np.minimum(queue_start, deadline, out=queue_start)
        upload_end = upload_start + upload_delay
        waiting = queue_start >= deadline
        if outage is not None:
            waiting &= ~outage
        cut = ~waiting & (upload_end[:queued] > deadline)
        stopped = waiting | cut
        if stopped.any():
            deadline_hit = True
            queue_delay[waiting] = 0.0
            queue_energy[waiting] = 0.0
            remaining = deadline - queue_start[cut]
            queue_energy[cut] = (remaining / queue_delay[cut]) * queue_energy[cut]
            queue_delay[cut] = remaining
            upload_end[:queued][stopped] = deadline
            queue_codes[stopped] = _CODE_TIMEOUT
    slack = upload_start - compute_delay

    # The synchronous round lasts until the last successful upload —
    # or exactly until the deadline whenever the server cut anyone off.
    # Devices lost to faults do not gate the round (the FLCC observes
    # the disconnect); if *nothing* survived, the round's window is the
    # time the last doomed device was still spending energy.
    if deadline_hit:
        round_delay = deadline
    else:
        completed_ends = upload_end[codes == _CODE_OK]
        round_delay = _last_end(completed_ends if completed_ends.size else upload_end)

    # Left-to-right totals in entry order, as the per-user loop summed
    # its entries.
    total_compute = sequential_sum(compute_energy)
    total_upload = sequential_sum(upload_energy)
    return RoundTimeline(
        device_ids=device_ids,
        frequency=freqs,
        compute_delay=compute_delay,
        upload_start=upload_start,
        upload_end=upload_end,
        upload_delay=upload_delay,
        slack=slack,
        compute_energy=compute_energy,
        upload_energy=upload_energy,
        outcome_codes=codes,
        order=order,
        round_delay=round_delay,
        total_energy=total_compute + total_upload,
        total_compute_energy=total_compute,
        total_upload_energy=total_upload,
        total_slack=sequential_sum(slack),
    )
