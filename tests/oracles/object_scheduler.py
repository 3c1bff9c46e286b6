"""The paper's scheduler as plain per-``UserDevice`` pseudocode.

Algorithms 2 and 3 and the Eq. 4-11 staging written the way the paper
states them — one Python loop per device, a full sort, scalar float
ops — with none of ``src/``'s array machinery. ``src/`` has exactly one
scheduler (over :class:`~repro.devices.DevicePopulation`); every parity
test asserts it is bitwise equal to this file.

The other shipped strategies — random and FedCS — are here as the
object ``select(round, devices)`` bodies they had before they ranked
population positions; each takes its RNG and cross-round state as
arguments.
"""

from typing import Dict, List, Mapping, Optional, Sequence

from repro.devices.device import UserDevice
from repro.network.tdma import RoundTimeline
from tests.oracles import tdma_loop


def utility_scores(
    devices: Sequence[UserDevice],
    appearance_counts: Mapping[int, int],
    payload_bits: float,
    bandwidth_hz: float,
    decay: float,
) -> Dict[int, float]:
    """Eq. (20) per device: ``eta^alpha / (T_cal(f_max) + T_com)``."""
    scores: Dict[int, float] = {}
    for device in devices:
        alpha = int(appearance_counts.get(device.device_id, 0))
        total_delay = device.compute_delay(
            device.cpu.f_max
        ) + device.upload_delay(payload_bits, bandwidth_hz)
        scores[device.device_id] = decay**alpha / total_delay
    return scores


def greedy_decay_select(
    devices: Sequence[UserDevice],
    appearance_counts: Dict[int, int],
    fraction: float,
    payload_bits: float,
    bandwidth_hz: float,
    decay: float,
) -> List[UserDevice]:
    """Algorithm 2: top ``N = max(Q*C, 1)`` by a full sort, then decay.

    Mutates ``appearance_counts`` (line 18: ``alpha_q += 1``).
    """
    scores = utility_scores(
        devices, appearance_counts, payload_bits, bandwidth_hz, decay
    )
    count = min(len(devices), max(int(len(devices) * fraction), 1))
    ranked = sorted(devices, key=lambda d: (-scores[d.device_id], d.device_id))
    chosen = ranked[:count]
    for device in chosen:
        appearance_counts[device.device_id] = (
            appearance_counts.get(device.device_id, 0) + 1
        )
    return chosen


def over_selection_extras(
    devices: Sequence[UserDevice],
    selected: Sequence[UserDevice],
    margin: int,
    payload_bits: float,
    bandwidth_hz: float,
) -> List[UserDevice]:
    """FedCS-style padding: the ``margin`` fastest unselected devices
    by Eq. (9) delay at ``f_max``, ties by id."""
    chosen = {device.device_id for device in selected}
    pool = [device for device in devices if device.device_id not in chosen]
    pool.sort(
        key=lambda d: (d.total_delay(payload_bits, bandwidth_hz), d.device_id)
    )
    return pool[:margin]


def determine_frequencies(
    selected: Sequence[UserDevice],
    payload_bits: float,
    bandwidth_hz: float,
    clamp: bool = True,
    quantize: bool = False,
) -> Dict[int, float]:
    """Algorithm 3; the dict is keyed in chain (sorted) order."""
    # Line 1: ascending max-frequency compute delay (ties by id).
    ordered = sorted(
        selected,
        key=lambda d: (d.compute_delay(d.cpu.f_max), d.device_id),
    )
    frequencies: Dict[int, float] = {}
    previous_finish = 0.0
    for position, device in enumerate(ordered):
        if position == 0:
            # Lines 3-4: the first user has no slack.
            freq = device.cpu.f_max
        else:
            # Line 9: finish computing when the previous upload ends.
            freq = device.frequency_for_compute_delay(previous_finish)
            if clamp:
                freq = device.cpu.clamp(freq)
        if quantize:
            freq = device.cpu.quantize(freq)
        frequencies[device.device_id] = freq
        # Line 8 under FIFO queueing: the actual upload-finish time.
        compute_end = device.cpu.cycles_for(device.num_samples) / freq
        upload_start = max(compute_end, previous_finish)
        previous_finish = upload_start + device.upload_delay(
            payload_bits, bandwidth_hz
        )
    return frequencies


def stage_devices(
    devices: Sequence[UserDevice],
    payload_bits: float,
    bandwidth_hz: float,
    frequencies: Mapping[int, float],
    payloads: Mapping[int, float],
):
    """Per-device Eq. (4)/(5)/(7)/(8) at the validated frequency, in
    the six-list layout ``tdma_loop.event_loop`` reads."""
    ids, freqs, compute_delay, compute_energy = [], [], [], []
    upload_delay, upload_energy = [], []
    for device in devices:
        freq = device.cpu.validate_frequency(
            frequencies.get(device.device_id, device.cpu.f_max)
        )
        payload = payloads.get(device.device_id, payload_bits)
        ids.append(device.device_id)
        freqs.append(freq)
        compute_delay.append(device.compute_delay(freq))
        compute_energy.append(device.compute_energy(freq))
        upload_delay.append(device.upload_delay(payload, bandwidth_hz))
        upload_energy.append(device.upload_energy(payload, bandwidth_hz))
    return ids, freqs, compute_delay, compute_energy, upload_delay, upload_energy


def simulate_tdma_round(
    devices: Sequence[UserDevice],
    payload_bits: float,
    bandwidth_hz: float,
    frequencies: Optional[Dict[int, float]] = None,
    payloads: Optional[Dict[int, float]] = None,
    **perturbations,
) -> RoundTimeline:
    """The TDMA round with every staged quantity taken from the device
    objects: :func:`stage_devices` feeds the per-device channel event
    loop, whose entries are laid out as columns only to be compared."""
    staged = stage_devices(
        devices, payload_bits, bandwidth_hz, frequencies or {}, payloads or {}
    )
    return tdma_loop.event_loop(staged, **perturbations).columnar()


def random_select(
    rng, devices: Sequence[UserDevice], fraction: float
) -> List[UserDevice]:
    """Classic FL: ``N`` devices without replacement, in fleet order."""
    count = min(len(devices), max(int(len(devices) * fraction), 1))
    chosen = rng.choice(len(devices), size=count, replace=False)
    return [devices[int(i)] for i in sorted(chosen)]


def fedcs_select(
    rng,
    devices: Sequence[UserDevice],
    round_deadline_s: float,
    payload_bits: float,
    bandwidth_hz: float,
    max_users: Optional[int] = None,
    candidate_fraction: Optional[float] = None,
) -> List[UserDevice]:
    """FedCS: poll candidates, then pack by (delay, id) under the
    deadline, re-simulating the TDMA round per tentative set."""
    candidates = devices
    if candidate_fraction is not None:
        count = max(1, int(round(candidate_fraction * len(devices))))
        chosen = rng.choice(len(devices), size=count, replace=False)
        candidates = [devices[int(i)] for i in sorted(chosen)]
    ranked = sorted(
        candidates,
        key=lambda d: (d.total_delay(payload_bits, bandwidth_hz), d.device_id),
    )
    selected: List[UserDevice] = []
    for candidate in ranked:
        if max_users is not None and len(selected) >= max_users:
            break
        tentative = selected + [candidate]
        timeline = simulate_tdma_round(tentative, payload_bits, bandwidth_hz)
        if timeline.round_delay <= round_deadline_s:
            selected = tentative
        else:
            break
    return selected or [ranked[0]]
