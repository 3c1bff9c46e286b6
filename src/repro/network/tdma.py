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

The simulator also accepts the per-device *perturbations* the fault
layer (:mod:`repro.faults`) resolves — straggler compute-delay
multipliers, during-compute deaths, channel outages/degradations, and
a hard round deadline. Each perturbed user carries an ``outcome``
(``"ok"``, ``"dropped"``, ``"timeout"``) and only the energy it
actually spent; with no perturbations the timeline is bitwise
identical to the unperturbed simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation
from repro.errors import NetworkError

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
"""The per-user round outcomes shared with ``ClientUpdate.status``."""


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


@dataclass(frozen=True)
class RoundTimeline:
    """The complete schedule of one TDMA FL round.

    ``RoundTimeline()`` is the round in which nobody computed: no
    users, no delay, no energy.

    Attributes:
        users: per-user timelines, in upload (channel-grant) order.
        round_delay: Eq. (10) — when the last upload completes.
        total_energy: Eq. (11) — sum of all users' energies.
        total_compute_energy: compute share of ``total_energy``.
        total_upload_energy: upload share of ``total_energy``.
        total_slack: summed idle wait across users.
    """

    users: Tuple[UserTimeline, ...] = ()
    round_delay: float = 0.0
    total_energy: float = 0.0
    total_compute_energy: float = 0.0
    total_upload_energy: float = 0.0
    total_slack: float = 0.0

    def by_device(self) -> Dict[int, UserTimeline]:
        """Index the per-user timelines by device id."""
        return {entry.device_id: entry for entry in self.users}

    def outcomes(self) -> Dict[int, str]:
        """Map each device id to its round outcome."""
        return {entry.device_id: entry.outcome for entry in self.users}

    def ids_with_outcome(self, outcome: str) -> Tuple[int, ...]:
        """Device ids with the given outcome, in timeline order."""
        return tuple(
            entry.device_id
            for entry in self.users
            if entry.outcome == outcome
        )

    @property
    def completed_ids(self) -> Tuple[int, ...]:
        """Devices whose upload reached the server, in grant order."""
        return self.ids_with_outcome(OUTCOME_OK)


def _stage_population(
    population: DevicePopulation,
    payload_bits: float,
    bandwidth_hz: float,
    frequencies: Dict[int, float],
    payloads: Dict[int, float],
) -> Tuple[List[int], List[float], List[float], List[float], List[float], List[float]]:
    """Per-device staging quantities as lists, in population order."""
    ids = population.device_ids.tolist()
    if frequencies:
        freqs = np.fromiter(
            (
                frequencies.get(device_id, f_max)
                for device_id, f_max in zip(ids, population.f_max.tolist())
            ),
            dtype=np.float64,
            count=len(population),
        )
    else:
        freqs = population.f_max
    freqs = population.validate_frequencies(freqs)
    compute_delay = population.cycles / freqs
    compute_energy = population.compute_energy(freqs)
    if payloads:
        payload = np.fromiter(
            (payloads.get(device_id, payload_bits) for device_id in ids),
            dtype=np.float64,
            count=len(population),
        )
    else:
        payload = np.float64(payload_bits)
    upload_delay = population.upload_delay(payload, bandwidth_hz)
    upload_energy = population.transmit_power * upload_delay
    return (
        ids,
        freqs.tolist(),
        compute_delay.tolist(),
        compute_energy.tolist(),
        upload_delay.tolist(),
        upload_energy.tolist(),
    )


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

    Args:
        devices: the selected user set ``Gamma_j``. Snapshotted into
            a :class:`~repro.devices.DevicePopulation` when
            ``population`` is not given.
        payload_bits: model payload ``C_model`` in bits.
        bandwidth_hz: the MEC system's resource blocks ``Z`` in Hz.
        frequencies: mapping from device id to operating frequency;
            missing devices run at their ``f_max``. Frequencies are
            validated against each device's range.
        payloads: optional per-device payload override in bits (e.g.
            compressed updates); missing devices use ``payload_bits``.
        population: the selected set as a
            :class:`~repro.devices.DevicePopulation` slice. When given
            it is the single source of the round's users and
            ``devices`` is not read — callers that hold no objects
            (e.g. a ``from_spec`` fleet) pass an empty ``devices``;
            a non-empty ``devices`` of another length is rejected.
        compute_scale: straggler multipliers ``>= 1`` per device id;
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
        upload_scale: channel-degradation multipliers ``>= 1`` per
            device id applied to upload delay and energy (the inverse
            of the achieved rate fraction).
        round_deadline: hard per-round deadline in seconds. Users whose
            upload cannot complete by it are cut off with outcome
            ``"timeout"``, charged only the energy of the work executed
            before the cut, and the synchronous round lasts exactly
            until the deadline whenever anyone was cut.

    Returns:
        The full :class:`RoundTimeline`. Perturbed users appear with a
        non-``"ok"`` :attr:`UserTimeline.outcome`; users dead before
        reaching the channel queue are listed after the queued users.
        With every perturbation argument at its default the result is
        bitwise identical to the unperturbed simulation.

    Raises:
        NetworkError: for an empty selection, a ``devices`` whose
            length disagrees with ``population``, or a non-positive
            ``round_deadline``.
        FrequencyRangeError: if an assigned frequency is out of range
            or not finite.
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
    if round_deadline is not None and round_deadline <= 0:
        raise NetworkError(
            f"round_deadline must be positive when set, got {round_deadline}"
        )
    frequencies = frequencies or {}
    payloads = payloads or {}
    compute_scale = compute_scale or {}
    drop_during = drop_during or {}
    upload_outage = upload_outage or frozenset()
    upload_scale = upload_scale or {}

    # Stage every device's base quantities — Eq. (4)/(5) at the
    # validated frequency and Eq. (7)/(8) at its payload — as parallel
    # scalar lists; the event loop below never touches a device object.
    (
        staged_ids,
        staged_freqs,
        staged_compute_delay,
        staged_compute_energy,
        staged_upload_delay,
        staged_upload_energy,
    ) = _stage_population(
        population, payload_bits, bandwidth_hz, frequencies, payloads
    )
    if compute_scale:
        for position, device_id in enumerate(staged_ids):
            slowdown = compute_scale.get(device_id)
            if slowdown is not None:
                staged_compute_delay[position] *= slowdown

    # Channel-grant order: first-come first-served on compute finish.
    order = sorted(
        range(len(staged_ids)),
        key=lambda position: (
            staged_compute_delay[position],
            staged_ids[position],
        ),
    )

    entries: List[UserTimeline] = []
    lost_entries: List[UserTimeline] = []
    channel_free_at = 0.0
    deadline_hit = False
    for position in order:
        device_id = staged_ids[position]
        freq = staged_freqs[position]
        compute_delay = staged_compute_delay[position]
        compute_energy = staged_compute_energy[position]
        slowdown = compute_scale.get(device_id)
        if slowdown is not None:
            compute_energy *= slowdown

        progress = drop_during.get(device_id)
        if progress is not None:
            # Death mid-compute: partial compute cost, no channel use.
            spent = progress * compute_delay
            lost_entries.append(
                UserTimeline(
                    device_id=device_id,
                    frequency=freq,
                    compute_delay=spent,
                    compute_end=spent,
                    upload_start=spent,
                    upload_end=spent,
                    upload_delay=0.0,
                    slack=0.0,
                    compute_energy=progress * compute_energy,
                    upload_energy=0.0,
                    outcome=OUTCOME_DROPPED,
                )
            )
            continue

        if round_deadline is not None and compute_delay >= round_deadline:
            # Still computing when the server cut the round off.
            fraction = round_deadline / compute_delay
            lost_entries.append(
                UserTimeline(
                    device_id=device_id,
                    frequency=freq,
                    compute_delay=round_deadline,
                    compute_end=round_deadline,
                    upload_start=round_deadline,
                    upload_end=round_deadline,
                    upload_delay=0.0,
                    slack=0.0,
                    compute_energy=fraction * compute_energy,
                    upload_energy=0.0,
                    outcome=OUTCOME_TIMEOUT,
                )
            )
            deadline_hit = True
            continue

        upload_start = max(compute_delay, channel_free_at)
        if device_id in upload_outage:
            # The link dies at the grant: no upload cost, channel free.
            entries.append(
                UserTimeline(
                    device_id=device_id,
                    frequency=freq,
                    compute_delay=compute_delay,
                    compute_end=compute_delay,
                    upload_start=upload_start,
                    upload_end=upload_start,
                    upload_delay=0.0,
                    slack=upload_start - compute_delay,
                    compute_energy=compute_energy,
                    upload_energy=0.0,
                    outcome=OUTCOME_DROPPED,
                )
            )
            continue

        if round_deadline is not None and upload_start >= round_deadline:
            # Queued behind the channel until the deadline passed.
            entries.append(
                UserTimeline(
                    device_id=device_id,
                    frequency=freq,
                    compute_delay=compute_delay,
                    compute_end=compute_delay,
                    upload_start=round_deadline,
                    upload_end=round_deadline,
                    upload_delay=0.0,
                    slack=round_deadline - compute_delay,
                    compute_energy=compute_energy,
                    upload_energy=0.0,
                    outcome=OUTCOME_TIMEOUT,
                )
            )
            deadline_hit = True
            continue

        upload_delay = staged_upload_delay[position]
        upload_energy = staged_upload_energy[position]
        degradation = upload_scale.get(device_id)
        if degradation is not None:
            upload_delay *= degradation
            upload_energy *= degradation
        upload_end = upload_start + upload_delay

        if round_deadline is not None and upload_end > round_deadline:
            # Cut off mid-upload: the channel was held until the cut.
            fraction = (round_deadline - upload_start) / upload_delay
            entries.append(
                UserTimeline(
                    device_id=device_id,
                    frequency=freq,
                    compute_delay=compute_delay,
                    compute_end=compute_delay,
                    upload_start=upload_start,
                    upload_end=round_deadline,
                    upload_delay=round_deadline - upload_start,
                    slack=upload_start - compute_delay,
                    compute_energy=compute_energy,
                    upload_energy=fraction * upload_energy,
                    outcome=OUTCOME_TIMEOUT,
                )
            )
            channel_free_at = round_deadline
            deadline_hit = True
            continue

        channel_free_at = upload_end
        entries.append(
            UserTimeline(
                device_id=device_id,
                frequency=freq,
                compute_delay=compute_delay,
                compute_end=compute_delay,
                upload_start=upload_start,
                upload_end=upload_end,
                upload_delay=upload_delay,
                slack=upload_start - compute_delay,
                compute_energy=compute_energy,
                upload_energy=upload_energy,
            )
        )

    entries.extend(lost_entries)
    # The synchronous round lasts until the last successful upload —
    # or exactly until the deadline whenever the server cut anyone off.
    # Devices lost to faults do not gate the round (the FLCC observes
    # the disconnect); if *nothing* survived, the round's window is the
    # time the last doomed device was still spending energy.
    completed_ends = [
        e.upload_end for e in entries if e.outcome == OUTCOME_OK
    ]
    if deadline_hit:
        round_delay = round_deadline
    elif completed_ends:
        round_delay = max(completed_ends)
    else:
        round_delay = max(e.upload_end for e in entries)

    total_compute = sum(e.compute_energy for e in entries)
    total_upload = sum(e.upload_energy for e in entries)
    return RoundTimeline(
        users=tuple(entries),
        round_delay=round_delay,
        total_energy=total_compute + total_upload,
        total_compute_energy=total_compute,
        total_upload_energy=total_upload,
        total_slack=sum(e.slack for e in entries),
    )
