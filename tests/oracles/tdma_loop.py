"""The TDMA round as the per-device event loop ``src/`` shipped until
the timeline went columnar.

One ``UserTimeline`` object per device, a ``sorted`` over positions,
branch by branch in the order the FLCC would observe the events. The
loop is kept verbatim: ``repro.network.tdma.simulate_tdma_round`` must
equal it to the last bit on every column and every total, with and
without perturbations, and the differential tests assert exactly that.
"""

from typing import AbstractSet, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.devices.population import DevicePopulation
from repro.errors import NetworkError
from repro.network.tdma import (
    CLIENT_OUTCOMES,
    OUTCOME_DROPPED,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    RoundTimeline,
    UserTimeline,
)
from tests.oracles import left_fold

Staged = Tuple[
    List[int], List[float], List[float], List[float], List[float], List[float]
]


class LoopTimeline(NamedTuple):
    """What the event loop produced: entry objects plus the totals."""

    users: Tuple[UserTimeline, ...]
    round_delay: float
    total_energy: float
    total_compute_energy: float
    total_upload_energy: float
    total_slack: float

    def columnar(self) -> RoundTimeline:
        """The same round in ``src/``'s column layout, for ``==``."""
        users = self.users

        def floats(name: str) -> np.ndarray:
            return np.array(
                [getattr(entry, name) for entry in users], dtype=np.float64
            )

        return RoundTimeline(
            device_ids=np.array(
                [entry.device_id for entry in users], dtype=np.int64
            ),
            frequency=floats("frequency"),
            compute_delay=floats("compute_delay"),
            upload_start=floats("upload_start"),
            upload_end=floats("upload_end"),
            upload_delay=floats("upload_delay"),
            slack=floats("slack"),
            compute_energy=floats("compute_energy"),
            upload_energy=floats("upload_energy"),
            outcome_codes=np.array(
                [CLIENT_OUTCOMES.index(entry.outcome) for entry in users],
                dtype=np.int8,
            ),
            round_delay=self.round_delay,
            total_energy=self.total_energy,
            total_compute_energy=self.total_compute_energy,
            total_upload_energy=self.total_upload_energy,
            total_slack=self.total_slack,
        )


def stage_population(
    population: DevicePopulation,
    payload_bits: float,
    bandwidth_hz: float,
    frequencies: Dict[int, float],
    payloads: Dict[int, float],
) -> Staged:
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


def simulate_population(
    population: DevicePopulation,
    payload_bits: float,
    bandwidth_hz: float,
    frequencies: Optional[Dict[int, float]] = None,
    payloads: Optional[Dict[int, float]] = None,
    **perturbations,
) -> LoopTimeline:
    """The event loop over a population's array staging."""
    staged = stage_population(
        population, payload_bits, bandwidth_hz, frequencies or {}, payloads or {}
    )
    return event_loop(staged, **perturbations)


def event_loop(
    staged: Staged,
    *,
    compute_scale: Optional[Dict[int, float]] = None,
    drop_during: Optional[Dict[int, float]] = None,
    upload_outage: Optional[AbstractSet[int]] = None,
    upload_scale: Optional[Dict[int, float]] = None,
    round_deadline: Optional[float] = None,
) -> LoopTimeline:
    """One synchronous TDMA round over six staged lists (ids,
    frequencies, compute delay/energy, upload delay/energy in
    population order), one device at a time."""
    if round_deadline is not None and round_deadline <= 0:
        raise NetworkError(
            f"round_deadline must be positive when set, got {round_deadline}"
        )
    compute_scale = compute_scale or {}
    drop_during = drop_during or {}
    upload_outage = upload_outage or frozenset()
    upload_scale = upload_scale or {}
    (
        staged_ids,
        staged_freqs,
        staged_compute_delay,
        staged_compute_energy,
        staged_upload_delay,
        staged_upload_energy,
    ) = staged
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

    total_compute = left_fold(e.compute_energy for e in entries)
    total_upload = left_fold(e.upload_energy for e in entries)
    return LoopTimeline(
        users=tuple(entries),
        round_delay=round_delay,
        total_energy=total_compute + total_upload,
        total_compute_energy=total_compute,
        total_upload_energy=total_upload,
        total_slack=left_fold(e.slack for e in entries),
    )
