"""OFDMA round-timeline simulation (counterfactual to the paper's TDMA).

The paper's MEC system is TDMA: the full ``Z`` resource blocks serve
one uploader at a time, producing the queueing slack Algorithm 3
exploits. The natural counterfactual is OFDMA: the ``Z`` Hz are split
into equal sub-bands, every selected user uploads *simultaneously* the
moment its computation finishes, and nobody waits.

Under OFDMA there is no slack, so HELCFL's frequency determination has
nothing to reclaim — the ablation bench
``benchmarks/bench_ext_ofdma.py`` quantifies exactly that, validating
that the paper's energy mechanism is a property of TDMA scheduling,
not of DVFS in general.

The simulator reuses :class:`~repro.network.tdma.RoundTimeline` so
TDMA and OFDMA rounds are directly comparable.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.devices.device import UserDevice
from repro.errors import NetworkError
from repro.network.tdma import RoundTimeline
from repro.sequential import sequential_sum

__all__ = ["simulate_ofdma_round"]


def simulate_ofdma_round(
    devices: Sequence[UserDevice],
    payload_bits: float,
    bandwidth_hz: float,
    frequencies: Optional[Dict[int, float]] = None,
    payloads: Optional[Dict[int, float]] = None,
) -> RoundTimeline:
    """Simulate one synchronous round over an OFDMA uplink.

    The bandwidth is divided into ``len(devices)`` equal sub-bands for
    the whole round; each user computes at its assigned frequency and
    uploads on its own sub-band immediately afterwards (zero slack by
    construction, but each upload is ``len(devices)`` times slower than
    a full-band TDMA upload).

    Args:
        devices: the selected user set.
        payload_bits: nominal model payload ``C_model`` in bits.
        bandwidth_hz: total uplink bandwidth ``Z`` in Hz.
        frequencies: per-device CPU frequency (default ``f_max``).
        payloads: optional per-device payload override in bits.

    Returns:
        A :class:`~repro.network.tdma.RoundTimeline`; ``slack`` is 0
        for every user.
    """
    if not devices:
        raise NetworkError("cannot simulate a round with no selected devices")
    frequencies = frequencies or {}
    payloads = payloads or {}
    subband_hz = bandwidth_hz / len(devices)

    # One row per user, keyed so that sorting the rows is the grant
    # order: compute finish, ties by device id.
    rows = []
    for position, device in enumerate(devices):
        freq = frequencies.get(device.device_id, device.cpu.f_max)
        freq = device.cpu.validate_frequency(freq)
        device_payload = payloads.get(device.device_id, payload_bits)
        rows.append(
            (
                device.compute_delay(freq),
                device.device_id,
                freq,
                device.upload_delay(device_payload, subband_hz),
                device.compute_energy(freq),
                device.upload_energy(device_payload, subband_hz),
                position,
            )
        )
    rows.sort()
    (
        compute_delay,
        device_ids,
        freqs,
        upload_delay,
        compute_energy,
        upload_energy,
        order,
    ) = (np.array(column) for column in zip(*rows))
    upload_end = compute_delay + upload_delay
    total_compute = sequential_sum(compute_energy)
    total_upload = sequential_sum(upload_energy)
    return RoundTimeline(
        device_ids=device_ids.astype(np.int64, copy=False),
        frequency=freqs,
        compute_delay=compute_delay,
        upload_start=compute_delay.copy(),
        upload_end=upload_end,
        upload_delay=upload_delay,
        slack=np.zeros(len(rows)),
        compute_energy=compute_energy,
        upload_energy=upload_energy,
        outcome_codes=np.zeros(len(rows), dtype=np.int8),
        order=order.astype(np.int64, copy=False),
        round_delay=max(upload_end.tolist()),
        total_energy=total_compute + total_upload,
        total_compute_energy=total_compute,
        total_upload_energy=total_upload,
        total_slack=0.0,
    )
